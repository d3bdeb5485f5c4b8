// Multi-process execution: -transport tcp runs the MPI controller across
// real OS processes connected by the TCP fabric (internal/wire). The parent
// process computes the serial reference, forks one worker per rank with the
// same case parameters, and verifies the workers' sink digests against the
// reference — the paper's byte-identical-output guarantee, checked across
// process boundaries.
//
//	bfrun -case mergetree -runtime mpi -transport tcp -ranks 4
//
// Workers are ordinary bfrun invocations with the internal -wire-rank and
// -wire-addr flags set; every process rebuilds the same graph and callback
// registry, so the rendezvous handshake verifies that all ranks agree on
// the dataflow before any payload moves.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mergetree"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/register"
	"github.com/babelflow/babelflow-go/internal/render"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// wireCase is everything a process needs to run one use case: the graph,
// its distribution over ranks, the callback registration and the global
// external inputs. Parent and workers construct it identically from the
// command line, so every process derives the same graph fingerprint.
type wireCase struct {
	graph   core.TaskGraph
	tmap    core.TaskMap
	reg     func(core.CallbackRegistrar) error
	initial map[core.TaskId][]core.Payload
}

func setupWireCase(useCase string, ranks, n, blocks int) (wireCase, error) {
	switch useCase {
	case "mergetree":
		field := data.SyntheticHCCI(n, n, n, 8, 2026)
		decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
		if err != nil {
			return wireCase{}, err
		}
		graph, err := mergetree.NewGraph(blocks, 2)
		if err != nil {
			return wireCase{}, err
		}
		cfg := mergetree.Config{Decomp: decomp, Threshold: 0.3}
		initial, err := cfg.InitialInputs(field, graph)
		if err != nil {
			return wireCase{}, err
		}
		return wireCase{
			graph:   graph,
			tmap:    core.NewGraphMap(ranks, graph),
			reg:     func(c core.CallbackRegistrar) error { return cfg.Register(c, graph) },
			initial: initial,
		}, nil
	case "render":
		field := data.SyntheticHCCI(n, n, n, 6, 7)
		decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
		if err != nil {
			return wireCase{}, err
		}
		cfg := render.Config{
			Decomp: decomp,
			Camera: render.Camera{Width: n, Height: n},
			TF:     render.TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4},
		}
		graph, err := graphs.NewReduction(blocks, 2)
		if err != nil {
			return wireCase{}, err
		}
		initial, err := cfg.InitialInputs(field, graph.LeafIds())
		if err != nil {
			return wireCase{}, err
		}
		return wireCase{
			graph:   graph,
			tmap:    core.NewModuloMap(ranks, graph.Size()),
			reg:     func(c core.CallbackRegistrar) error { return cfg.RegisterReduction(c, graph) },
			initial: initial,
		}, nil
	case "register":
		cfg := register.Config{GridW: 3, GridH: 3, Tile: 24, Overlap: 0.2, Jitter: 2}
		tiles := data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, 5)
		graph, err := cfg.Graph()
		if err != nil {
			return wireCase{}, err
		}
		initial, err := cfg.InitialInputs(graph, tiles)
		if err != nil {
			return wireCase{}, err
		}
		return wireCase{
			graph:   graph,
			tmap:    core.NewModuloMap(ranks, graph.Size()),
			reg:     func(c core.CallbackRegistrar) error { return cfg.Register(c, graph) },
			initial: initial,
		}, nil
	case "register-iter":
		// The iterative refinement loop: the unrolled graph runs on every
		// tier unchanged, and the converged digest (the live decision sink)
		// is what the parent verifies against serial.
		cfg := register.Config{GridW: 3, GridH: 3, Tile: 24, Overlap: 0.2, Jitter: 2}
		tiles := data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, 5)
		ig, err := cfg.Iterative(8)
		if err != nil {
			return wireCase{}, err
		}
		initial, err := cfg.IterInitial(tiles)
		if err != nil {
			return wireCase{}, err
		}
		return wireCase{
			graph:   ig,
			tmap:    core.NewIterativeMap(ranks, ig),
			reg:     func(c core.CallbackRegistrar) error { return cfg.RegisterIter(c, ig) },
			initial: initial,
		}, nil
	}
	return wireCase{}, fmt.Errorf("bfrun: use case %q has no wire setup", useCase)
}

// runWireWorker is one rank of a multi-process run: it connects the TCP
// fabric, executes its sub-graph and prints one digest line per local sink
// payload for the parent to verify. With journalDir set the rank journals
// its lineage ledger there (and resumes from whatever the directory already
// holds); killAfter >= 0 arms a deterministic self-kill after that many
// inter-rank sends, seeding a resumable crash.
func runWireWorker(useCase string, rank, ranks int, addr, tierName string, n, blocks int, journalDir string, killAfter int) {
	wc, err := setupWireCase(useCase, ranks, n, blocks)
	if err != nil {
		log.Fatalf("bfrun: rank %d: %v", rank, err)
	}
	tier, err := wire.ParseTier(tierName)
	if err != nil {
		log.Fatalf("bfrun: rank %d: %v", rank, err)
	}
	var opts []mpi.Option
	if journalDir != "" {
		opts = append(opts, mpi.WithJournal(journalDir))
	}
	ctrl := mpi.New(opts...)
	if err := ctrl.Initialize(wc.graph, wc.tmap); err != nil {
		log.Fatalf("bfrun: rank %d: %v", rank, err)
	}
	if err := wc.reg(ctrl); err != nil {
		log.Fatalf("bfrun: rank %d: %v", rank, err)
	}
	fab, err := wire.Connect(wire.Options{
		Rank: rank, Ranks: ranks, Addr: addr, Tier: tier, Fingerprint: ctrl.Fingerprint(),
	})
	if err != nil {
		log.Fatalf("bfrun: rank %d: %v", rank, err)
	}
	local := make(map[core.TaskId][]core.Payload)
	for id, ps := range wc.initial {
		if wc.tmap.Shard(id) == core.ShardId(rank) {
			local[id] = ps
		}
	}
	var tr fabric.Transport = fab
	if killAfter >= 0 {
		tr = faultinject.Wrap(fab, rank, faultinject.Plan{
			KillRank:  rank,
			KillAfter: killAfter,
			Delay:     time.Millisecond,
		})
	}
	start := time.Now()
	out, err := ctrl.RunRank(context.Background(), rank, tr, local, nil, nil)
	if journalDir != "" {
		// Journal accounting flows to the parent whether the run survived or
		// crashed — the crash line is what a later -resume is measured by.
		js := ctrl.JournalStats()
		fmt.Printf("BFWIRE journal rank=%d restored=%d replayed=%d executed=%d store_errors=%d\n",
			rank, js.Restored, js.Replayed, js.Executed, js.StoreErrors)
	}
	if err != nil {
		log.Fatalf("bfrun: rank %d: %v", rank, err)
	}
	if err := fab.Shutdown(30 * time.Second); err != nil {
		log.Fatalf("bfrun: rank %d: shutdown: %v", rank, err)
	}
	for _, line := range digestLines(out) {
		fmt.Println(line)
	}
	st := fab.Snapshot()
	fmt.Printf("BFWIRE done rank=%d elapsed=%s sent=%d bytes=%d\n",
		rank, time.Since(start).Round(time.Microsecond), st.Messages, st.Bytes)
}

// digestLines renders sink outputs as sorted, parseable digest lines.
func digestLines(out map[core.TaskId][]core.Payload) []string {
	var lines []string
	for id, ps := range out {
		for slot, p := range ps {
			w, err := p.Wire()
			if err != nil {
				log.Fatalf("bfrun: sink %d/%d: %v", id, slot, err)
			}
			lines = append(lines, fmt.Sprintf("BFWIRE sink %d %d %x", id, slot, sha256.Sum256(w)))
		}
	}
	sort.Strings(lines)
	return lines
}

// runWireParent launches one worker process per rank, aggregates their exit
// status and timing, and verifies the combined sink digests against an
// in-parent serial reference run.
//
// journalDir, when set, makes every worker journal under it. killAll >= 0
// arms every worker's self-kill after that many inter-rank sends — the
// parent then expects the job to crash (that is the seeded state a later
// -resume recovers from) and exits zero only if it did. resume marks a
// restart: digests must match AND the journals must have carried progress
// (something restored, every restored task replayed, replays + executions
// covering the whole graph).
func runWireParent(useCase, rt string, ranks, n, blocks int, tierName, journalDir string, killAll int, resume bool) {
	if rt != "mpi" {
		log.Fatalf("bfrun: -transport tcp supports -runtime mpi, got %q", rt)
	}
	if _, err := wire.ParseTier(tierName); err != nil {
		log.Fatal("bfrun: ", err)
	}
	if ranks < 1 {
		log.Fatalf("bfrun: -ranks must be positive, got %d", ranks)
	}
	if killAll >= 0 && journalDir == "" {
		log.Fatal("bfrun: -kill-all-after needs -journal (a crash without a journal is not resumable)")
	}
	wc, err := setupWireCase(useCase, ranks, n, blocks)
	if err != nil {
		log.Fatal(err)
	}

	want := serialDigests(wc)
	addr := freeLoopbackAddr()
	workers := make([]*worker, ranks)
	start := time.Now()
	for r := 0; r < ranks; r++ {
		args := []string{
			"-case", useCase,
			"-n", strconv.Itoa(n),
			"-blocks", strconv.Itoa(blocks),
			"-ranks", strconv.Itoa(ranks),
			"-wire-rank", strconv.Itoa(r),
			"-wire-addr", addr,
			"-wire-tier", tierName,
		}
		if journalDir != "" {
			args = append(args, "-wire-journal", journalDir)
		}
		if killAll >= 0 {
			args = append(args, "-wire-kill-after", strconv.Itoa(killAll))
		}
		workers[r] = forkWorker(args)
	}
	var js struct{ restored, replayed, executed, storeErrs int }
	failed, got := waitWorkers(workers, func(line string) {
		switch {
		case strings.HasPrefix(line, "BFWIRE done"):
			fmt.Println(line)
		case strings.HasPrefix(line, "BFWIRE journal"):
			var rk, re, rp, ex, se int
			if _, err := fmt.Sscanf(line, "BFWIRE journal rank=%d restored=%d replayed=%d executed=%d store_errors=%d",
				&rk, &re, &rp, &ex, &se); err == nil {
				js.restored += re
				js.replayed += rp
				js.executed += ex
				js.storeErrs += se
			}
			fmt.Println(line)
		}
	})
	elapsed := time.Since(start)

	if killAll >= 0 {
		// Seed phase of a checkpoint/restart exercise: the job must have
		// crashed with journaled progress for -resume to have work to do.
		ok := failed > 0 && js.executed > 0
		fmt.Printf("wire-journal seed %-10s %d tasks over %d processes: %v  crashed_ranks=%d/%d journaled_executions=%d -> resume with -resume %s\n",
			useCase, wc.graph.Size(), ranks, elapsed.Round(time.Millisecond), failed, ranks, js.executed, journalDir)
		if !ok {
			os.Exit(1)
		}
		return
	}

	matches, match := matchDigests(got, want)
	ok := failed == 0 && match
	if resume {
		// A restart must prove it resumed rather than recomputed: journals
		// carried completed tasks in, every one of them replayed, and
		// replays + executions account for exactly the whole graph.
		covered := js.replayed+js.executed == wc.graph.Size()
		ok = ok && js.restored > 0 && js.replayed == js.restored && covered
		fmt.Printf("wire-resume %-10s %d tasks over %d processes: %v  sinks=%d/%d restored=%d replayed=%d executed=%d match-serial=%v\n",
			useCase, wc.graph.Size(), ranks, elapsed.Round(time.Millisecond), matches, len(want),
			js.restored, js.replayed, js.executed, ok)
	} else {
		fmt.Printf("wire %-10s %d tasks over %d processes: %v  sinks=%d/%d match-serial=%v\n",
			useCase, wc.graph.Size(), ranks, elapsed.Round(time.Millisecond), matches, len(want), ok)
	}
	if !ok {
		os.Exit(1)
	}
}

// serialDigests runs the case on the serial reference controller and
// returns the set of its sink digest lines — what the workers' combined
// output must reproduce.
func serialDigests(wc wireCase) map[string]bool {
	ser := core.NewSerial()
	if err := ser.Initialize(wc.graph, nil); err != nil {
		log.Fatal(err)
	}
	if err := wc.reg(ser); err != nil {
		log.Fatal(err)
	}
	ref, err := ser.Run(wc.initial)
	if err != nil {
		log.Fatal(err)
	}
	want := make(map[string]bool)
	for _, line := range digestLines(ref) {
		want[line] = true
	}
	return want
}

// freeLoopbackAddr reserves an ephemeral loopback port and releases it for
// a run's rank 0 to rebind as the rendezvous address.
func freeLoopbackAddr() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// worker is one forked bfrun process and its captured standard output.
type worker struct {
	cmd *exec.Cmd
	out bytes.Buffer
}

// forkWorker starts this binary again with args, capturing its stdout.
func forkWorker(args []string) *worker {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	w := &worker{cmd: exec.Command(exe, args...)}
	w.cmd.Stdout = &w.out
	w.cmd.Stderr = os.Stderr
	if err := w.cmd.Start(); err != nil {
		log.Fatal("bfrun: fork worker: ", err)
	}
	return w
}

// waitWorkers waits for every worker and scans its output: sink digest
// lines are collected into got, every other line goes to onLine. failed
// counts the workers that exited with an error.
func waitWorkers(workers []*worker, onLine func(line string)) (failed int, got map[string]bool) {
	got = make(map[string]bool)
	for i, w := range workers {
		if err := w.cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "bfrun: worker %d exited: %v\n", i, err)
			failed++
		}
		sc := bufio.NewScanner(&w.out)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "BFWIRE sink") {
				got[line] = true
			} else {
				onLine(line)
			}
		}
	}
	return failed, got
}

// matchDigests counts the collected sink digests that the serial reference
// also produced; all reports that the two sets are equal.
func matchDigests(got, want map[string]bool) (matches int, all bool) {
	for line := range got {
		if want[line] {
			matches++
		}
	}
	return matches, matches == len(want) && len(got) == len(want)
}
