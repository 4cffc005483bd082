package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"time"
)

// This file is the HTTP plumbing both daemons share: `overlapsim serve`
// and the campaign coordinator speak the same JSON envelope, expose the
// same /healthz liveness document, shut down through the same drain
// idiom, and (on the client side) retry transient transport failures the
// same way. Keeping it here means a new daemon inherits the idiom by
// importing the package instead of re-growing its own.

// ErrorJSON is the body of every non-streaming error response.
type ErrorJSON struct {
	Error string `json:"error"`
}

// WriteJSON writes v as an indented JSON response with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the standard JSON error envelope.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, ErrorJSON{fmt.Sprintf(format, args...)})
}

// DecodeJSON strictly decodes one JSON document into v: unknown fields are
// rejected so a typoed field (a POST /sweeps axis named "latencys", say)
// fails loudly with a 400 instead of silently sweeping the default.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// Version reports the running binary's module version — what /healthz
// advertises. Source builds without module stamping report "devel".
func Version() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// HealthJSON is the GET /healthz document: proof of liveness plus enough
// identity (version, uptime) for an operator or a load balancer health
// check to tell a fresh restart from a long-running daemon.
type HealthJSON struct {
	Status        string `json:"status"`
	Version       string `json:"version"`
	UptimeSeconds int64  `json:"uptime_seconds"`
}

// HealthzHandler returns the shared GET /healthz handler: 200 with the
// version/uptime document. Every overlapsim daemon mounts this same
// handler, so probes are configured once and work against any of them.
func HealthzHandler(start time.Time) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, HealthJSON{
			Status:        "ok",
			Version:       Version(),
			UptimeSeconds: int64(time.Since(start).Seconds()),
		})
	}
}

// Drain gracefully shuts the HTTP server down, allowing in-flight requests
// up to timeout to finish — the shared shutdown idiom behind both daemons'
// -drain-timeout flag. A non-positive timeout closes immediately.
func Drain(srv *http.Server, timeout time.Duration) error {
	if timeout <= 0 {
		return srv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return srv.Shutdown(ctx)
}

// StatusError is a non-2xx response to a client helper call, carrying the
// decoded error envelope when the server sent one.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("http %d: %s", e.Code, e.Msg)
	}
	return fmt.Sprintf("http %d", e.Code)
}

// Retry is the client-side transport policy the campaign worker uses when
// talking to its coordinator: transient failures (a connection refused
// during a coordinator restart, a 5xx) are retried with linearly growing
// sleeps; anything the server answered deliberately (2xx, 4xx, 410) is
// returned to the caller at once.
type Retry struct {
	// Attempts bounds how often one call is tried (min 1).
	Attempts int
	// Wait is the sleep after the first failed try; try k waits k*Wait.
	Wait time.Duration
}

// DoJSON performs one JSON round trip: POST in (or GET when in is nil) to
// url, decode a 2xx body into out (when out is non-nil). A non-2xx status
// is returned as a *StatusError with the server's error envelope; only
// transport errors and 5xx are retried under the policy. Status 204 is a
// success with no body, which the caller detects by out staying zero.
func (p Retry) DoJSON(ctx context.Context, hc *http.Client, method, url string, in, out any) (int, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for try := 1; try <= attempts; try++ {
		if try > 1 {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(time.Duration(try-1) * p.Wait):
			}
		}
		code, retryable, err := doJSONOnce(ctx, hc, method, url, in, out)
		if err == nil || !retryable {
			return code, err
		}
		lastErr = err
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
	}
	return 0, lastErr
}

// doJSONOnce is one try of DoJSON; retryable classifies the failure.
func doJSONOnce(ctx context.Context, hc *http.Client, method, url string, in, out any) (code int, retryable bool, err error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, false, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, false, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		var ej ErrorJSON
		_ = json.NewDecoder(resp.Body).Decode(&ej)
		return resp.StatusCode, true, &StatusError{Code: resp.StatusCode, Msg: ej.Error}
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var ej ErrorJSON
		_ = json.NewDecoder(resp.Body).Decode(&ej)
		return resp.StatusCode, false, &StatusError{Code: resp.StatusCode, Msg: ej.Error}
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, false, fmt.Errorf("decoding response: %w", err)
		}
	}
	return resp.StatusCode, false, nil
}
