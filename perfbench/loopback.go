package main

import (
	"context"
	"net"
	"net/http"
	"time"
)

// loopback serves a handler on a 127.0.0.1 port for the run's in-process
// clients.
type loopback struct {
	base    string // http://127.0.0.1:port
	client  *http.Client
	hs      *http.Server
	serving chan error
}

func startLoopback(h http.Handler, conns int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		base:    "http://" + ln.Addr().String(),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}},
		hs:      &http.Server{Handler: h},
		serving: make(chan error, 1),
	}
	go func() { lb.serving <- lb.hs.Serve(ln) }()
	return lb, nil
}

// stop shuts the server down and waits for its goroutine to exit.
func (lb *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = lb.hs.Shutdown(ctx) // Serve's return value, read below, reports the outcome
	cancel()
	<-lb.serving
	lb.client.CloseIdleConnections()
}
