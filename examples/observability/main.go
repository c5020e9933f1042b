// Observability demo: one faulty grid run watched through every stock
// trace sink at once — a Recorder for the post-hoc Gantt chart, a
// Timeline folding gauge samples into virtual-time series, a streaming
// CSV event trace, and a Chrome trace-event document loadable in
// Perfetto (ui.perfetto.dev) — followed by a parallel sweep using the
// per-replica progress callback and sink factory.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"slices"
	"sync"

	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Part 1: one observed run, four sinks on one stream. ---
	f := faults.Default()
	f.CrashRate = 0.04
	f.MeanOutageSeconds = 15
	f.SEURate = 0.05
	f.LeaseTTLSeconds = 2
	f.Retry = faults.RetryPolicy{MaxRetries: 5, BackoffSeconds: 0.5, BackoffCapSeconds: 8}

	rec := &obs.Recorder{}
	timeline := obs.NewTimeline()
	var chromeBuf, csvBuf bytes.Buffer
	chrome := obs.NewChrome(&chromeBuf)
	stream := obs.NewCSV(&csvBuf)

	cfg := grid.DefaultConfig()
	cfg.SampleEverySeconds = 2
	// The engine fans events into every sink; their lifecycles stay
	// ours: we flush and close below.
	cfg.Tracer = obs.Multi(rec, timeline, chrome, stream)
	m, err := grid.RunScenario(context.Background(), grid.ScenarioSpec{
		Seed:     2026,
		Config:   cfg,
		Grid:     grid.DefaultGridSpec(),
		Workload: grid.DefaultWorkload(24, 0.6),
		Faults:   &f,
	})
	if err != nil {
		return err
	}
	if err := chrome.Close(); err != nil {
		return err
	}
	if err := stream.Close(); err != nil {
		return err
	}

	fmt.Println("run:", m)
	fmt.Println()

	fmt.Println("element occupancy (Gantt from the Recorder):")
	if err := rec.Gantt(os.Stdout, 72); err != nil {
		return err
	}
	fmt.Println()

	if err := timeline.Summary("Timeline (virtual-time weighted)").Write(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\ntimeline: %d samples; trace: %d events (%d dispatches, %d retries)\n",
		len(timeline.Samples()), len(rec.Events()),
		timeline.EventCount(obs.KindDispatch), timeline.EventCount(obs.KindRetry))
	fmt.Printf("streaming CSV: %d bytes; Chrome trace: %d bytes (load in ui.perfetto.dev)\n\n",
		csvBuf.Len(), chromeBuf.Len())

	// --- Part 2: a sweep with progress reporting and per-replica sinks. ---
	// Progress and the sink factory run on worker goroutines, so what
	// they record is guarded by mu: the finished replicas in completion
	// order, and one Timeline per replica, keyed by replica index.
	var mu sync.Mutex
	var finished []grid.ReplicaResult
	replicaTimelines := map[int]*obs.Timeline{}
	spec := grid.SweepSpec{
		Points: []grid.SweepPoint{{
			Name:     "observed",
			Config:   grid.DefaultConfig(),
			Grid:     grid.DefaultGridSpec(),
			Workload: grid.DefaultWorkload(20, 1),
			Faults:   &f,
		}},
		Seeds:   []uint64{1, 2, 3, 4},
		Workers: 2,
		Progress: func(rr grid.ReplicaResult) {
			mu.Lock()
			defer mu.Unlock()
			finished = append(finished, rr)
		},
		SinkFactory: func(r grid.Replica) obs.TraceSink {
			tl := obs.NewTimeline()
			mu.Lock()
			defer mu.Unlock()
			replicaTimelines[r.Index] = tl
			return tl
		},
	}
	fmt.Println("sweep with per-replica sinks:")
	res, err := grid.Sweep(context.Background(), spec)
	if err != nil {
		return err
	}
	// Workers finish in any order; the progress lines print in replica
	// order once the sweep is done, so every run prints the same bytes.
	slices.SortFunc(finished, func(a, b grid.ReplicaResult) int { return a.Replica.Index - b.Replica.Index })
	for i, rr := range finished {
		fmt.Printf("  replica %d (seed %d) finished: %d/%d\n",
			rr.Replica.Index, rr.Replica.Seed, i+1, len(res.Replicas))
	}
	for _, rr := range res.Replicas {
		if rr.Err != nil {
			return rr.Err
		}
		fmt.Printf("  replica %d saw %d dispatches\n",
			rr.Replica.Index, replicaTimelines[rr.Replica.Index].EventCount(obs.KindDispatch))
	}
	return nil
}
