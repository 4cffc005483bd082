package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"overlapsim/internal/campaign"
	"overlapsim/internal/machine"
	"overlapsim/internal/sweep"
	"overlapsim/internal/sweep/replaystore"
)

// campaignChunkPoints is the lease granularity: small chunks, so the
// coordination path (lease, journal rewrite, envelope) is exercised per
// few points.
const campaignChunkPoints = 4

// campaignTimeout bounds one campaign; one that has not finished by then
// is a failure, not a hang.
const campaignTimeout = 60 * time.Second

// chunkSpans records a campaign's coordination spans: each lease and
// complete call, and each chunk's execution between them.
type chunkSpans struct {
	rec    *recorder
	parent int

	mu      sync.Mutex
	running map[int]int // chunk -> open sweep.chunk span
}

// timedBoard is one worker's coordinator client, traced into the
// campaign's shared chunkSpans.
type timedBoard struct {
	*campaign.Client
	c *chunkSpans
}

func (b *timedBoard) Lease(ctx context.Context) (*campaign.Lease, time.Duration, error) {
	c := b.c
	id := c.rec.begin("campaign.lease", c.parent, b.Worker)
	l, wait, err := b.Client.Lease(ctx)
	c.rec.end(id)
	if l != nil {
		c.mu.Lock()
		c.running[l.Chunk] = c.rec.begin("sweep.chunk", c.parent, b.Worker)
		c.mu.Unlock()
	}
	return l, wait, err
}

func (b *timedBoard) Complete(ctx context.Context, chunk int, work sweep.Counters, envelope []byte) error {
	c := b.c
	c.mu.Lock()
	c.rec.end(c.running[chunk])
	c.mu.Unlock()
	return c.rec.do("campaign.complete", c.parent, b.Worker, func() error {
		return b.Client.Complete(ctx, chunk, work, envelope)
	})
}

// campaignRun is what one campaign produced.
type campaignRun struct {
	csv      []byte
	counters campaign.Counters
	work     sweep.Counters // summed over the workers' runners
}

// warmCampaign runs grid as a campaign against the warm trace cache and
// replay store in cache: one coordinator (journal in dir) behind a
// loopback HTTP server, and nproc in-process campaign.Workers (a fresh
// Runner each, Engine.Workers 1) talking to it through campaign.Client,
// then Assemble and a CSV encode, recording spans under parent.
func warmCampaign(grid sweep.Grid, cache, dir string, nproc int, rec *recorder, parent int) (*campaignRun, error) {
	sig := sweep.Signature(grid, machine.Default(), 0, 0)
	coord, err := campaign.New(campaign.Config{
		Signature: sig, Total: grid.Size(), ChunkPoints: campaignChunkPoints, Dir: dir,
	})
	if err != nil {
		return nil, err
	}
	lb, err := startLoopback(campaign.NewServer(coord, nil).Handler(), nproc)
	if err != nil {
		return nil, err
	}
	defer lb.stop()
	spans := &chunkSpans{rec: rec, parent: parent, running: map[int]int{}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, nproc) // one send per worker at most
	runners := make([]*sweep.Runner, nproc)
	var wg sync.WaitGroup
	for i := range runners {
		runners[i] = sweep.NewRunner(machine.Default())
		runners[i].Engine.Workers = 1
		runners[i].Cache = &sweep.TraceCache{Dir: cache}
		runners[i].Store = &replaystore.Store{Dir: cache}
		id := fmt.Sprintf("w%d", i)
		wk := &campaign.Worker{
			Board:     &timedBoard{&campaign.Client{Base: lb.base, Worker: id, HTTP: lb.client}, spans},
			ID:        id,
			Runner:    runners[i],
			Grid:      grid,
			Signature: sig,
			Total:     grid.Size(),
			NumChunks: coord.Counters().Chunks,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wk.Run(ctx); err != nil && ctx.Err() == nil {
				errs <- err
			}
		}()
	}
	// A worker polls again only a second after finding every chunk leased,
	// so the campaign ends when the coordinator is done, not when the workers
	// notice.
	select {
	case <-coord.Done():
	case err = <-errs:
	case <-time.After(campaignTimeout):
		err = fmt.Errorf("campaign: did not finish in %s", campaignTimeout)
	}
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if err := coord.Err(); err != nil {
		return nil, err
	}
	var results []sweep.Result
	var buf bytes.Buffer
	err = rec.do("campaign.assemble", parent, "", func() error {
		var err error
		results, err = coord.Assemble()
		return err
	})
	if err == nil {
		err = rec.do("campaign.encode", parent, "", func() error { return sweep.Write(&buf, sweep.FormatCSV, results) })
	}
	if err != nil {
		return nil, err
	}
	out := &campaignRun{csv: buf.Bytes(), counters: coord.Counters()}
	for _, r := range runners {
		out.work = out.work.Add(r.Stats())
	}
	return out, nil
}

// campaignMetrics records a traced campaign's per-layer metrics; apps is
// the number of distinct traced workloads of its grid.
func campaignMetrics(lm layerMetrics, cr *campaignRun, apps int) {
	ct := cr.counters
	lm["campaign.chunks"] = float64(ct.Chunks)
	lm["campaign.leases"] = float64(ct.Leases)
	lm["campaign.expired"] = float64(ct.Expired)
	lm["campaign.duplicates"] = float64(ct.Duplicates)
	lm["campaign.trace_loads_per_workload"] = float64(cr.work.TraceCacheHits) / float64(apps)
}
