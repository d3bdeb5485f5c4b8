// Fault-tolerant execution: -faults runs the use cases on the MPI
// controller over in-process loopback TCP meshes with a deterministic
// peer kill injected, recovers via lineage-ledger replay, and verifies the
// recovered sink digests byte-for-byte against the serial reference.
//
//	bfrun -faults                          # all three use cases
//	bfrun -faults -case render -kill-rank 2 -kill-after 1
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// faultRun is the outcome of one use case under fault injection.
type faultRun struct {
	useCase  string
	ok       bool
	elapsed  time.Duration
	report   mpi.ElasticReport
	sinksOK  int
	sinksAll int
}

// runFaults executes the selected use cases (all three for useCase "" or
// "all") with one peer killed on the first epoch and reports recovery
// statistics. Exits non-zero if any recovered run diverges from serial.
func runFaults(useCase string, ranks, n, blocks, killRank, killAfter int) {
	cases := []string{"mergetree", "render", "register"}
	if useCase != "" && useCase != "all" {
		cases = []string{useCase}
	}
	failed := false
	for _, uc := range cases {
		r := runFaultCase(uc, ranks, n, blocks, killRank, killAfter)
		status := "MATCH"
		if !r.ok {
			status = "MISMATCH"
			failed = true
		}
		fmt.Printf("faults %-10s %v  epochs=%d lost=%v replayed=%d executed=%d recovery=%v sinks=%d/%d %s\n",
			r.useCase, r.elapsed.Round(time.Millisecond), r.report.Epochs, r.report.LostShards,
			r.report.Replayed, r.report.TotalExecuted, r.report.RecoveryTime.Round(time.Millisecond),
			r.sinksOK, r.sinksAll, status)
	}
	if failed {
		os.Exit(1)
	}
}

func runFaultCase(useCase string, ranks, n, blocks, killRank, killAfter int) faultRun {
	wc, err := setupWireCase(useCase, ranks, n, blocks)
	if err != nil {
		log.Fatalf("bfrun: %s: %v", useCase, err)
	}

	// Serial reference digests.
	ser := core.NewSerial()
	if err := ser.Initialize(wc.graph, nil); err != nil {
		log.Fatalf("bfrun: %s: %v", useCase, err)
	}
	if err := wc.reg(ser); err != nil {
		log.Fatalf("bfrun: %s: %v", useCase, err)
	}
	ref, err := ser.Run(wc.initial)
	if err != nil {
		log.Fatalf("bfrun: %s: serial: %v", useCase, err)
	}
	want := make(map[string]bool)
	for _, line := range digestLines(ref) {
		want[line] = true
	}

	// Inputs are consumed by the serial run above, so rebuild them for the
	// recovering run (tasks own their inputs).
	wc, err = setupWireCase(useCase, ranks, n, blocks)
	if err != nil {
		log.Fatalf("bfrun: %s: %v", useCase, err)
	}
	ctrl := mpi.New(mpi.WithRetry(core.RetryPolicy{
		MaxAttempts: ranks,
		BaseBackoff: 10 * time.Millisecond,
	}))
	if err := ctrl.Initialize(wc.graph, wc.tmap); err != nil {
		log.Fatalf("bfrun: %s: %v", useCase, err)
	}
	if err := wc.reg(ctrl); err != nil {
		log.Fatalf("bfrun: %s: %v", useCase, err)
	}
	fp := ctrl.Fingerprint()
	connect := func(epoch, nranks int) ([]fabric.Transport, error) {
		fabs, err := wire.Mesh(nranks, wire.Options{
			Fingerprint:       fp,
			Epoch:             epoch,
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatTimeout:  time.Second,
		})
		if err != nil {
			return nil, err
		}
		trs := make([]fabric.Transport, len(fabs))
		for i, f := range fabs {
			trs[i] = f
		}
		return trs, nil
	}
	inject := func(epoch, rank int, tr fabric.Transport) fabric.Transport {
		if epoch != 1 {
			return tr // retry epochs run clean, like a restarted process
		}
		return faultinject.Wrap(tr, rank, faultinject.Plan{
			KillRank:  killRank,
			KillAfter: killAfter,
			Delay:     time.Millisecond,
		})
	}

	ms, err := mpi.NewMembership(ranks)
	if err != nil {
		log.Fatalf("bfrun: %s: %v", useCase, err)
	}

	start := time.Now()
	out, rep, err := ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
		Connect:    connect,
		Inject:     inject,
		Initial:    wc.initial,
		Membership: ms,
	})
	elapsed := time.Since(start)
	if err != nil {
		log.Fatalf("bfrun: %s: recovery failed: %v (report %+v)", useCase, err, rep)
	}

	matches := 0
	got := digestLines(out)
	for _, line := range got {
		if want[line] {
			matches++
		}
	}
	return faultRun{
		useCase:  useCase,
		ok:       matches == len(want) && len(got) == len(want),
		elapsed:  elapsed,
		report:   rep,
		sinksOK:  matches,
		sinksAll: len(want),
	}
}
