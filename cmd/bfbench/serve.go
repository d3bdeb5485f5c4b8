package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/serve"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// The serve mode benchmarks the resident service against one-shot runs:
// for each small workload it measures (a) the mean latency of a full
// one-shot mpi.Run — fabric, pool and controller built and torn down per
// graph — against (b) the mean latency of mpi.Service.Submit over a warm
// fabric, and (c) the sustained throughput of the full bfserve admission
// path (HTTP excluded) under concurrent clients. BENCH_serve.json records
// all three; warm submission of small graphs is expected to be >=5x
// cheaper than one-shot.

// serveResult is one workload's measurement.
type serveResult struct {
	// OneShotMs is the mean wall clock of a cold mpi.Run per submission.
	OneShotMs float64 `json:"oneshot_ms"`
	// WarmMs is the mean wall clock of mpi.Service.Submit on a warm fabric.
	WarmMs float64 `json:"warm_submit_ms"`
	// SpeedupX is OneShotMs / WarmMs.
	SpeedupX float64 `json:"speedup_x"`
	// SustainedPerSec is end-to-end serve.Server throughput: Submissions
	// runs streamed from 8 concurrent clients through the admission queue,
	// executors and warm service.
	SustainedPerSec float64 `json:"sustained_runs_per_sec"`
	Submissions     int     `json:"submissions"`
	Tasks           int     `json:"tasks"`
}

// oneShotRun executes the submission with a throwaway controller: per-run
// fabric, pool and (absent) journal exactly as mpi.Run does for bfrun.
func oneShotRun(sub mpi.Submission, ranks int) error {
	ctrl := mpi.New(mpi.WithWorkers(ranks))
	if err := ctrl.Initialize(sub.Graph, core.NewGraphMap(ranks, sub.Graph)); err != nil {
		return err
	}
	if err := sub.Register(ctrl); err != nil {
		return err
	}
	out, err := ctrl.Run(sub.Initial)
	if err != nil {
		return err
	}
	for _, ps := range out {
		for _, p := range ps {
			p.Release()
		}
	}
	return nil
}

// measureServe benchmarks one program across the three modes.
func measureServe(reg *serve.Registry, program string, params serve.Params, ranks, iters int) (serveResult, error) {
	probe, err := reg.Build(program, params)
	if err != nil {
		return serveResult{}, err
	}
	tasks := probe.Graph.Size()
	for _, ps := range probe.Initial {
		for _, p := range ps {
			p.Release()
		}
	}

	// (a) one-shot: everything rebuilt per run.
	start := time.Now()
	for i := 0; i < iters; i++ {
		sub, err := reg.Build(program, params)
		if err != nil {
			return serveResult{}, err
		}
		if err := oneShotRun(sub, ranks); err != nil {
			return serveResult{}, fmt.Errorf("oneshot: %w", err)
		}
	}
	oneshot := time.Since(start)

	// (b) warm service: fabric and pool resident across submissions.
	svc, err := mpi.NewService(ranks, mpi.WithWorkers(ranks))
	if err != nil {
		return serveResult{}, err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		sub, err := reg.Build(program, params)
		if err != nil {
			return serveResult{}, err
		}
		out, _, err := svc.Submit(context.Background(), sub)
		if err != nil {
			svc.Close()
			return serveResult{}, fmt.Errorf("warm submit: %w", err)
		}
		for _, ps := range out {
			for _, p := range ps {
				p.Release()
			}
		}
	}
	warm := time.Since(start)
	if err := svc.Close(); err != nil {
		return serveResult{}, err
	}

	// (c) sustained throughput through the full admission path.
	const clients = 8
	total := clients * (iters / 2)
	srv, err := serve.NewServer(serve.Config{
		Ranks:      ranks,
		QueueDepth: total + clients,
		Registry:   reg,
	})
	if err != nil {
		return serveResult{}, err
	}
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	start = time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/clients; i++ {
				st, err := srv.Submit(program, params)
				if err != nil {
					errCh <- err
					return
				}
				if st, err = srv.Wait(context.Background(), st.ID); err != nil {
					errCh <- err
					return
				} else if st.State != serve.StateDone {
					errCh <- fmt.Errorf("run %d: state %s: %s", st.ID, st.State, st.Error)
					return
				}
			}
		}()
	}
	wg.Wait()
	sustained := time.Since(start)
	if err := srv.Close(); err != nil {
		return serveResult{}, err
	}
	select {
	case err := <-errCh:
		return serveResult{}, fmt.Errorf("sustained: %w", err)
	default:
	}

	ms := func(d time.Duration, n int) float64 { return float64(d.Microseconds()) / 1000 / float64(n) }
	res := serveResult{
		OneShotMs:       ms(oneshot, iters),
		WarmMs:          ms(warm, iters),
		SustainedPerSec: float64(total) / sustained.Seconds(),
		Submissions:     total,
		Tasks:           tasks,
	}
	res.SpeedupX = res.OneShotMs / res.WarmMs
	return res, nil
}

// partitionByShard splits global external inputs into per-rank maps.
func partitionByShard(m core.TaskMap, initial map[core.TaskId][]core.Payload) []map[core.TaskId][]core.Payload {
	parts := make([]map[core.TaskId][]core.Payload, m.ShardCount())
	for r := range parts {
		parts[r] = make(map[core.TaskId][]core.Payload)
	}
	for id, ps := range initial {
		parts[m.Shard(id)][id] = ps
	}
	return parts
}

// rankedRun drives one submission with one RunRank per rank over the given
// per-rank transports — the multi-process execution shape.
func rankedRun(sub mpi.Submission, m core.TaskMap, views []fabric.Transport) error {
	ranks := m.ShardCount()
	ctrl := mpi.New()
	if err := ctrl.Initialize(sub.Graph, m); err != nil {
		return err
	}
	if err := sub.Register(ctrl); err != nil {
		return err
	}
	parts := partitionByShard(m, sub.Initial)
	results := make([]map[core.TaskId][]core.Payload, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = ctrl.RunRank(context.Background(), r, views[r], parts[r], nil, nil)
		}(r)
	}
	wg.Wait()
	for _, res := range results {
		for _, ps := range res {
			for _, p := range ps {
				p.Release()
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// measureServeWire benchmarks run multiplexing over a real wire mesh at
// the requested transport tier: one-shot bootstraps (and tears down) a
// fresh loopback mesh per submission, exactly as a cold bfrun invocation
// would; warm keeps one mesh resident behind per-rank run demultiplexers
// and gives each submission its own RunTransport views. The gap is
// dominated by the mesh bootstrap the resident service amortizes.
func measureServeWire(reg *serve.Registry, program string, params serve.Params, tier wire.Tier, ranks, oneshotIters, warmIters int) (serveResult, error) {
	probe, err := reg.Build(program, params)
	if err != nil {
		return serveResult{}, err
	}
	tasks := probe.Graph.Size()
	m := core.NewGraphMap(ranks, probe.Graph)
	fpCtrl := mpi.New()
	if err := fpCtrl.Initialize(probe.Graph, m); err != nil {
		return serveResult{}, err
	}
	fp := fpCtrl.Fingerprint()
	for _, ps := range probe.Initial {
		for _, p := range ps {
			p.Release()
		}
	}

	// (a) one-shot: fresh mesh per submission.
	start := time.Now()
	for i := 0; i < oneshotIters; i++ {
		sub, err := reg.Build(program, params)
		if err != nil {
			return serveResult{}, err
		}
		fabrics, err := wire.Mesh(ranks, wire.Options{Fingerprint: fp, Tier: tier})
		if err != nil {
			return serveResult{}, err
		}
		views := make([]fabric.Transport, ranks)
		for r := range views {
			views[r] = fabrics[r]
		}
		runErr := rankedRun(sub, core.NewGraphMap(ranks, sub.Graph), views)
		var wg sync.WaitGroup
		for _, f := range fabrics {
			wg.Add(1)
			go func(f *wire.Fabric) {
				defer wg.Done()
				f.Shutdown(30 * time.Second)
			}(f)
		}
		wg.Wait()
		if runErr != nil {
			return serveResult{}, fmt.Errorf("wire oneshot: %w", runErr)
		}
	}
	oneshot := time.Since(start)

	// (b) warm: resident mesh, per-run demux views.
	fabrics, err := wire.Mesh(ranks, wire.Options{Fingerprint: fp, Tier: tier})
	if err != nil {
		return serveResult{}, err
	}
	demuxes := make([]*fabric.Demux, ranks)
	for r := range demuxes {
		demuxes[r] = fabric.NewDemux(fabrics[r], r)
	}
	var nextID atomic.Uint64
	warmRun := func() error {
		sub, err := reg.Build(program, params)
		if err != nil {
			return err
		}
		id := nextID.Add(1)
		views := make([]fabric.Transport, ranks)
		for r := range views {
			v, err := demuxes[r].Open(id)
			if err != nil {
				return err
			}
			views[r] = v
		}
		defer func() {
			for r := range views {
				demuxes[r].Release(id)
			}
		}()
		return rankedRun(sub, core.NewGraphMap(ranks, sub.Graph), views)
	}
	start = time.Now()
	for i := 0; i < warmIters; i++ {
		if err := warmRun(); err != nil {
			return serveResult{}, fmt.Errorf("wire warm: %w", err)
		}
	}
	warm := time.Since(start)

	// (c) sustained: concurrent submissions multiplexed over the one mesh.
	const clients = 4
	total := clients * (warmIters / clients)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	start = time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/clients; i++ {
				if err := warmRun(); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	sustained := time.Since(start)
	select {
	case err := <-errCh:
		return serveResult{}, fmt.Errorf("wire sustained: %w", err)
	default:
	}

	for _, d := range demuxes {
		d.Close()
	}
	var shut sync.WaitGroup
	for _, f := range fabrics {
		shut.Add(1)
		go func(f *wire.Fabric) {
			defer shut.Done()
			f.Shutdown(30 * time.Second)
		}(f)
	}
	shut.Wait()
	for _, d := range demuxes {
		d.Wait()
	}

	ms := func(d time.Duration, n int) float64 { return float64(d.Microseconds()) / 1000 / float64(n) }
	res := serveResult{
		OneShotMs:       ms(oneshot, oneshotIters),
		WarmMs:          ms(warm, warmIters),
		SustainedPerSec: float64(total) / sustained.Seconds(),
		Submissions:     total,
		Tasks:           tasks,
	}
	res.SpeedupX = res.OneShotMs / res.WarmMs
	return res, nil
}

// runServeBench measures the resident-service benchmarks and rewrites the
// JSON report at path, preserving an existing baseline_seed section.
func runServeBench(path string) error {
	reg := serve.DefaultRegistry()
	workloads := []struct {
		name    string
		program string
		params  serve.Params
		iters   int
	}{
		{"reduction-8", "reduction", serve.Params{"blocks": 8, "payload": 64}, 300},
		{"kwaymerge-8", "kwaymerge", serve.Params{"blocks": 8, "payload": 64}, 300},
		{"binaryswap-8", "binaryswap", serve.Params{"blocks": 8, "payload": 64}, 300},
		{"reduction-64", "reduction", serve.Params{"blocks": 64, "payload": 64}, 100},
	}
	const ranks = 4

	current := make(map[string]serveResult, len(workloads)+1)
	for _, w := range workloads {
		res, err := measureServe(reg, w.program, w.params, ranks, w.iters)
		if err != nil {
			return fmt.Errorf("bfbench: %s: %w", w.name, err)
		}
		current[w.name] = res
		fmt.Printf("%-18s oneshot %8.3f ms  warm %8.3f ms (%.1fx)  sustained %8.0f runs/s over %d submissions\n",
			w.name, res.OneShotMs, res.WarmMs, res.SpeedupX, res.SustainedPerSec, res.Submissions)
	}

	// The wire-mesh rows, one per transport tier: here one-shot pays a full
	// mesh bootstrap per submission, the cost the resident service exists
	// to amortize, and the tier sets the per-message cost under it.
	for _, mt := range []struct {
		suffix string
		tier   wire.Tier
	}{
		{"tcp", wire.TierTCP},
		{"unix", wire.TierUnix},
		{"shm", wire.TierShm},
	} {
		name := "reduction-8-wiremesh-" + mt.suffix
		wireRes, err := measureServeWire(reg, "reduction", serve.Params{"blocks": 8, "payload": 64}, mt.tier, ranks, 20, 200)
		if err != nil {
			return fmt.Errorf("bfbench: %s: %w", name, err)
		}
		current[name] = wireRes
		fmt.Printf("%-24s oneshot %8.3f ms  warm %8.3f ms (%.1fx)  sustained %8.0f runs/s over %d submissions\n",
			name, wireRes.OneShotMs, wireRes.WarmMs, wireRes.SpeedupX, wireRes.SustainedPerSec, wireRes.Submissions)
	}

	report := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &report); err != nil {
			return fmt.Errorf("bfbench: existing %s is not valid JSON: %w", path, err)
		}
	}
	cur, err := json.Marshal(current)
	if err != nil {
		return err
	}
	report["current"] = cur
	if _, ok := report["baseline_seed"]; !ok {
		report["baseline_seed"] = cur
	}
	note, _ := json.Marshal(fmt.Sprintf(
		"Resident-service benchmarks: per-submission latency of cold one-shot mpi.Run (fabric+pool per run) vs mpi.Service.Submit over a warm fabric, and sustained serve.Server throughput from 8 concurrent clients, on 4 in-process ranks. The reduction-8-wiremesh-{tcp,unix,shm} rows repeat the comparison over a real wire mesh pinned to each transport tier: cold mesh bootstrap per run vs a resident mesh behind per-rank run demultiplexers. Measured %s. Regenerate current with: go run ./cmd/bfbench -serve",
		time.Now().Format("2006-01-02")))
	report["note"] = note
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}
