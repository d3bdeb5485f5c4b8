// Elastic multi-process execution: -elastic runs the workload across real
// OS processes whose membership CHANGES while the dataflow is in flight.
// The parent is the coordinator: it owns the membership gate (internal/wire
// Gate), forks the initial workers, and later forks joiners (-join /
// -join-after) and retires a member (-drain / -drain-after). Workers join
// the gate, follow per-epoch tickets — derive the epoch's task map from the
// ticket's member table with core.RebalanceShards, connect the epoch's
// rendezvous, run their logical rank — and report status back. A
// membership event mid-epoch fences the running epoch (liveness timers
// suspended, journals flushed) and the next ticket rebuilds the mesh over
// the new member set; handed-off lineage replays from the journals instead
// of re-executing.
//
//	bfrun -case mergetree -elastic -ranks 2 -join 2 -join-after 150ms \
//	      -drain 1 -drain-after 400ms -journal /tmp/bf-elastic
//
// The parent verifies the union of the final epoch's sink digests against
// an in-parent serial reference — elasticity must not change a byte.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/journal"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// pacedRegistrar interposes a fixed per-task delay before every callback,
// stretching the epoch so membership events provably land mid-run. The
// delay never touches payloads, so digests are unchanged.
type pacedRegistrar struct {
	inner core.CallbackRegistrar
	delay time.Duration
}

func (p pacedRegistrar) RegisterCallback(id core.CallbackId, cb core.Callback) error {
	if p.delay <= 0 {
		return p.inner.RegisterCallback(id, cb)
	}
	return p.inner.RegisterCallback(id, func(in []core.Payload, t core.TaskId) ([]core.Payload, error) {
		time.Sleep(p.delay)
		return cb(in, t)
	})
}

// epochResult is what one epoch attempt hands back to the worker loop.
type epochResult struct {
	out map[core.TaskId][]core.Payload
	err error
}

// epochRun tracks the worker's in-flight epoch so a newer ticket can fence
// it: suspend liveness, flush the journal, cancel, and wait for unwind.
type epochRun struct {
	epoch  int
	fab    *wire.Fabric
	cancel context.CancelFunc
	done   chan epochResult
	fenced bool
}

// runElasticWorker is one elastic member process: join the gate, then
// follow tickets until released. ranks is the INITIAL rank count every
// process agrees on — the base task map the per-epoch rebalance diffs
// against.
func runElasticWorker(useCase, gateAddr, tierName string, ranks, n, blocks int, journalDir string, pace time.Duration) {
	wc, err := setupWireCase(useCase, ranks, n, blocks)
	if err != nil {
		log.Fatal("bfrun: ", err)
	}
	tier, err := wire.ParseTier(tierName)
	if err != nil {
		log.Fatal("bfrun: ", err)
	}
	var opts []mpi.Option
	if journalDir != "" {
		opts = append(opts, mpi.WithJournal(journalDir))
	}
	ctrl := mpi.New(opts...)
	if err := ctrl.Initialize(wc.graph, wc.tmap); err != nil {
		log.Fatal("bfrun: ", err)
	}
	if err := wc.reg(pacedRegistrar{ctrl, pace}); err != nil {
		log.Fatal("bfrun: ", err)
	}

	sess, err := wire.JoinGate(gateAddr, ctrl.Fingerprint(), 30*time.Second)
	if err != nil {
		log.Fatal("bfrun: join gate: ", err)
	}
	defer sess.Close()
	member := sess.Member()

	// The member's durable lineage: restored on start, synced at every
	// fence, closed on drain/exit. Without -journal the ledger is
	// in-memory — hand-offs then re-execute instead of replaying.
	var led *core.Ledger
	var store *journal.LedgerStore
	if journalDir != "" {
		led, store, err = ctrl.OpenMemberLedger(member)
		if err != nil {
			log.Fatalf("bfrun: member %d: %v", member, err)
		}
	} else {
		led = core.NewLedger()
	}

	tickets := make(chan wire.Ticket, 4)
	go func() {
		for {
			t, err := sess.NextTicket(0)
			if err != nil {
				// The coordinator is gone; unwind as if released so the
				// process never lingers as an orphan.
				tickets <- wire.Ticket{Action: wire.ActionExit}
				return
			}
			tickets <- t
		}
	}()

	fence := func(cur *epochRun) {
		cur.fenced = true
		cur.fab.Fence(true)
		if store != nil {
			store.Sync()
		}
		cur.cancel()
		<-cur.done
		sess.Report(wire.Status{Epoch: cur.epoch, OK: false, Detail: "fenced"})
	}

	var cur *epochRun
	var lastOut map[core.TaskId][]core.Payload
	epochs := 0
	for {
		var t wire.Ticket
		if cur == nil {
			t = <-tickets
		} else {
			select {
			case t = <-tickets:
			case res := <-cur.done:
				if res.err != nil {
					// A collapsed epoch (a peer fenced, drained, or died) is
					// not fatal: report it and wait for the next ticket —
					// the coordinator decides whether the run is over.
					sess.Report(wire.Status{Epoch: cur.epoch, OK: false, Detail: res.err.Error()})
					cur = nil
					continue
				}
				lastOut = res.out
				sess.Report(wire.Status{Epoch: cur.epoch, OK: true,
					Detail: fmt.Sprintf("replayed=%d executed=%d", led.Replays(), led.Executions())})
				cur = nil
				continue
			}
		}

		switch t.Action {
		case wire.ActionRun:
			if cur != nil {
				fence(cur)
				cur = nil
			}
			// Adopt handed-off lineage from members retired since the last
			// epoch: their journals are closed (they reported their drain),
			// so replaying their completed work here is safe and durable.
			if store != nil {
				for _, donor := range t.Retired {
					dled, dstore, err := ctrl.OpenMemberLedger(donor)
					if err != nil {
						log.Fatalf("bfrun: member %d: adopt from %d: %v", member, donor, err)
					}
					mem := make([]core.ShardId, len(t.Members))
					for i, m := range t.Members {
						mem[i] = core.ShardId(m)
					}
					tmap, err := core.RebalanceShards(wc.graph, wc.tmap, mem)
					if err != nil {
						log.Fatalf("bfrun: member %d: %v", member, err)
					}
					for _, id := range wc.graph.TaskIds() {
						if tmap.Shard(id) == core.ShardId(t.Rank) {
							led.Adopt(dled, id)
						}
					}
					dstore.Close()
				}
			}
			cur = startEpoch(ctrl, wc, t, tier, led)
			epochs++
		case wire.ActionDrain:
			if cur != nil {
				fence(cur)
				cur = nil
			}
			if store != nil {
				store.Close()
				store = nil
			}
			sess.Report(wire.Status{Epoch: t.Epoch, OK: true, Detail: "drained"})
		case wire.ActionExit:
			if cur != nil {
				fence(cur)
			}
			if store != nil {
				store.Close()
			}
			fmt.Printf("BFWIRE elastic member=%d epochs=%d restored=%d replayed=%d executed=%d\n",
				member, epochs, led.Restored(), led.Replays(), led.Executions())
			for _, line := range digestLines(lastOut) {
				fmt.Println(line)
			}
			return
		default:
			log.Fatalf("bfrun: member %d: unexpected ticket action %d", member, t.Action)
		}
	}
}

// startEpoch derives the ticket's task map, connects the epoch's rendezvous
// as the assigned logical rank, and launches the run.
func startEpoch(ctrl *mpi.Controller, wc wireCase, t wire.Ticket, tier wire.Tier, led *core.Ledger) *epochRun {
	members := make([]core.ShardId, len(t.Members))
	for i, m := range t.Members {
		members[i] = core.ShardId(m)
	}
	tmap, err := core.RebalanceShards(wc.graph, wc.tmap, members)
	if err != nil {
		log.Fatalf("bfrun: epoch %d: %v", t.Epoch, err)
	}
	local := make(map[core.TaskId][]core.Payload)
	for id, ps := range wc.initial {
		if tmap.Shard(id) == core.ShardId(t.Rank) {
			local[id] = ps
		}
	}
	fab, err := wire.Connect(wire.Options{
		Rank: t.Rank, Ranks: t.Ranks, Addr: t.Addr, Epoch: t.Epoch, Tier: tier,
		Fingerprint:       ctrl.Fingerprint(),
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	})
	if err != nil {
		log.Fatalf("bfrun: epoch %d rank %d: connect: %v", t.Epoch, t.Rank, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	run := &epochRun{epoch: t.Epoch, fab: fab, cancel: cancel, done: make(chan epochResult, 1)}
	go func() {
		out, err := ctrl.RunRank(ctx, t.Rank, fab, local, tmap, led)
		if err == nil {
			if serr := fab.Shutdown(30 * time.Second); serr != nil {
				err = fmt.Errorf("shutdown: %w", serr)
			}
		}
		run.done <- epochResult{out, err}
	}()
	return run
}

// runElasticParent is the coordinator: gate, initial fleet, deferred joins
// and drain, per-epoch tickets, digest verification.
func runElasticParent(useCase string, ranks, joinN int, joinAfter time.Duration,
	drainMember int, drainAfter time.Duration, n, blocks int, tierName, journalDir string, pace time.Duration) {
	if ranks < 1 {
		log.Fatalf("bfrun: -ranks must be positive, got %d", ranks)
	}
	if _, err := wire.ParseTier(tierName); err != nil {
		log.Fatal("bfrun: ", err)
	}
	if drainMember >= 0 && drainMember >= ranks+joinN {
		log.Fatalf("bfrun: -drain %d names a member that will never exist (%d total)", drainMember, ranks+joinN)
	}
	wc, err := setupWireCase(useCase, ranks, n, blocks)
	if err != nil {
		log.Fatal(err)
	}

	want := serialDigests(wc) // unpaced: the pace is a worker-side delay
	// The gate vets joiners by the same fingerprint the workers derive, so
	// compute it the way they do: graph plus registered callback ids.
	fpc := mpi.New()
	if err := fpc.Initialize(wc.graph, wc.tmap); err != nil {
		log.Fatal(err)
	}
	if err := wc.reg(fpc); err != nil {
		log.Fatal(err)
	}
	fp := fpc.Fingerprint()

	gate, err := wire.NewGate("127.0.0.1:0", 0, fp)
	if err != nil {
		log.Fatal("bfrun: ", err)
	}
	defer gate.Close()

	var workers []*worker
	fork := func() {
		args := []string{
			"-case", useCase,
			"-n", strconv.Itoa(n),
			"-blocks", strconv.Itoa(blocks),
			"-ranks", strconv.Itoa(ranks),
			"-wire-gate", gate.Addr(),
			"-wire-tier", tierName,
			"-elastic-pace", pace.String(),
		}
		if journalDir != "" {
			args = append(args, "-wire-journal", journalDir)
		}
		workers = append(workers, forkWorker(args))
	}

	start := time.Now()
	for i := 0; i < ranks; i++ {
		fork()
	}
	// Initial fleet admission: the first `ranks` join events are the
	// founding member set.
	var members []int
	for len(members) < ranks {
		select {
		case ev := <-gate.Events():
			if ev.Kind == wire.KindJoin {
				members = append(members, ev.Member)
			}
		case <-time.After(30 * time.Second):
			log.Fatal("bfrun: initial workers never joined the gate")
		}
	}

	// Deferred membership changes, delivered through the gate like any
	// external joiner or drain request would be.
	if joinN > 0 {
		time.AfterFunc(joinAfter, func() {
			for i := 0; i < joinN; i++ {
				fork()
			}
		})
	}
	if drainMember >= 0 {
		gateAddr := gate.Addr()
		time.AfterFunc(drainAfter, func() {
			if err := wire.RequestDrain(gateAddr, drainMember, fp, 10*time.Second); err != nil {
				log.Fatal("bfrun: drain request: ", err)
			}
		})
	}

	// One status pump per admitted member; pumps for joiners start when
	// their join event is processed.
	statusCh := make(chan wire.Status, 64)
	pump := func(member int) {
		go func() {
			for {
				st, err := gate.AwaitStatus(member, 10*time.Minute)
				if err != nil {
					return
				}
				statusCh <- st
			}
		}()
	}
	for _, m := range members {
		pump(m)
	}

	admitted := append([]int(nil), members...)
	var drained, pendingJoin, pendingDrain []int
	epoch, fences := 0, 0
	running := true
	for running {
		// Integrate membership changes at the epoch boundary.
		members = append(members, pendingJoin...)
		pendingJoin = nil
		var retired []int
		for _, d := range pendingDrain {
			idx := -1
			for i, m := range members {
				if m == d {
					idx = i
				}
			}
			if idx < 0 {
				continue // unknown or already drained: ignore
			}
			if err := gate.SendTicket(d, wire.Ticket{Action: wire.ActionDrain, Member: d, Epoch: epoch + 1}); err != nil {
				log.Fatal("bfrun: ", err)
			}
			deadline := time.After(60 * time.Second)
		drainWait:
			for {
				select {
				case st := <-statusCh:
					if st.Member == d && st.Detail == "drained" {
						break drainWait
					}
				case <-deadline:
					log.Fatalf("bfrun: member %d never reported its drain", d)
				}
			}
			members = append(members[:idx], members[idx+1:]...)
			retired = append(retired, d)
			drained = append(drained, d)
		}
		pendingDrain = nil
		sort.Ints(members)
		if len(members) == 0 {
			log.Fatal("bfrun: every member drained; nothing left to run the epoch")
		}

		epoch++
		addr := freeLoopbackAddr()
		for l, m := range members {
			t := wire.Ticket{Action: wire.ActionRun, Member: m, Epoch: epoch, Rank: l,
				Ranks: len(members), Addr: addr, Members: members, Retired: retired}
			if err := gate.SendTicket(m, t); err != nil {
				log.Fatal("bfrun: ", err)
			}
		}

		okSet := make(map[int]bool)
	epochWait:
		for {
			select {
			case ev := <-gate.Events():
				// A membership event mid-epoch: coalesce whatever arrives in
				// the next beat, then fence by issuing the next epoch.
				handleEvent := func(ev wire.Event) {
					switch ev.Kind {
					case wire.KindJoin:
						pendingJoin = append(pendingJoin, ev.Member)
						admitted = append(admitted, ev.Member)
						pump(ev.Member)
					case wire.KindDrain:
						pendingDrain = append(pendingDrain, ev.Member)
					}
				}
				handleEvent(ev)
				coalesce := time.After(50 * time.Millisecond)
			drainEvents:
				for {
					select {
					case ev := <-gate.Events():
						handleEvent(ev)
					case <-coalesce:
						break drainEvents
					}
				}
				fences++
				break epochWait
			case st := <-statusCh:
				if st.Epoch != epoch {
					continue // a stale fenced/OK report from an abandoned epoch
				}
				if !st.OK {
					if st.Detail == "fenced" {
						continue
					}
					log.Fatalf("bfrun: member %d failed epoch %d: %s", st.Member, st.Epoch, st.Detail)
				}
				okSet[st.Member] = true
				if len(okSet) == len(members) {
					running = false
					break epochWait
				}
			}
		}
	}
	for _, m := range admitted {
		gate.SendTicket(m, wire.Ticket{Action: wire.ActionExit})
	}

	failed, got := waitWorkers(workers, func(line string) {
		if strings.HasPrefix(line, "BFWIRE elastic") {
			fmt.Println(line)
		}
	})
	elapsed := time.Since(start)

	matches, match := matchDigests(got, want)
	ok := failed == 0 && match
	fmt.Printf("wire-elastic %-10s %d tasks: start=%d join=+%d drain=%d epochs=%d fences=%d %v  sinks=%d/%d match-serial=%v\n",
		useCase, wc.graph.Size(), ranks, joinN, len(drained), epoch, fences,
		elapsed.Round(time.Millisecond), matches, len(want), ok)
	if !ok {
		os.Exit(1)
	}
}
