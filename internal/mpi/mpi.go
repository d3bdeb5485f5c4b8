// Package mpi implements the MPI runtime controller of the paper (§IV-A):
// static task placement via a task map, asynchronous point-to-point
// messages, and a per-rank thread pool that executes tasks greedily as soon
// as their inputs arrive.
//
// Each rank instantiates a separate controller loop that owns the local
// sub-graph, posts receives, tracks input readiness and hands ready tasks to
// background workers. Intra-rank messages skip serialization and pass the
// payload pointer directly; inter-rank messages (and fan-out copies) are
// serialized. A task assumes ownership of its inputs and relinquishes
// ownership of its outputs, so no data races occur on payloads.
//
// Scheduling is graph-aware: at Initialize the controller runs a one-pass
// critical-path analysis (core.CriticalPathsFor, cached per graph
// fingerprint) and the receive loop dispatches ready tasks into per-rank
// priority deques ordered by downstream depth, so the most critical ready
// task runs first instead of the oldest. The deques are drained by a shared
// work-stealing executor (fabric.Pool): a global budget of workers —
// defaulting to GOMAXPROCS, not a fixed per-rank pool — is homed round-robin
// over the ranks, and an idle worker whose home rank has no ready work
// steals the most critical task of a loaded rank. Scheduling order never
// changes outputs: tasks still run only when every input has arrived, and
// routing depends only on the graph and the task map.
//
// In this reproduction "ranks" are goroutine groups connected by the
// in-process fabric rather than OS processes on a Cray; the control
// structure — who serializes what, when tasks dispatch, what blocks —
// follows the paper's controller.
package mpi

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/journal"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// TransportFactory builds the transport an in-process Run executes over —
// the hook the functional option WithTransport installs. The returned
// transport must be receivable for every rank in-process (like the
// in-memory fabric); per-process transports (wire) go through RunRank.
type TransportFactory func(ranks int) fabric.Transport

// Options configures a Controller.
type Options struct {
	// Workers is the global worker budget of a run: the number of executor
	// goroutines shared by all ranks. With stealing enabled (the default) an
	// idle rank's worker executes another rank's ready tasks, so the budget
	// bounds total execution concurrency rather than per-rank concurrency.
	// Zero selects runtime.GOMAXPROCS(0). When stealing is disabled the
	// budget is raised to at least one homed worker per rank, since nothing
	// else can drain a rank's deque.
	Workers int
	// FIFO dispatches ready tasks in arrival order instead of
	// most-critical-first — the pre-scheduler discipline, kept as the
	// ablation baseline of the scheduler benches.
	FIFO bool
	// NoSteal pins workers to their home rank's deque (ablation). It forces
	// at least one worker per rank.
	NoSteal bool
	// Inline executes tasks inside the controller loop instead of on the
	// pool — the single-threaded execution style of the hand-tuned baseline.
	Inline bool
	// Blocking switches the fabric to rendezvous sends, modeling blocking
	// MPI_Send of large (rendezvous-protocol) messages. Like real
	// unbuffered blocking sends, it can deadlock on dataflows where two
	// ranks send to each other simultaneously; the safe single-threaded
	// "Original MPI" baseline of Fig. 6 uses Inline with asynchronous
	// sends, which removes compute/communication overlap (the effect the
	// paper attributes the performance gap to) without the deadlock.
	Blocking bool
	// AlwaysSerialize disables the in-memory message optimization, forcing
	// every payload through serialization (ablation).
	AlwaysSerialize bool
	// Observer, when non-nil, receives a notification per executed task. An
	// Observer that also implements core.SchedObserver additionally receives
	// per-task queue timing (enqueue and dispatch instants); one implementing
	// core.ReplayObserver or core.RecoveryObserver additionally receives
	// fault-tolerance notifications (ledger replays, recovery epochs).
	Observer core.Observer
	// Retry bounds fault-tolerant execution (RunElastic): failed-epoch
	// count, backoff and per-attempt timeout. The zero value selects
	// core.DefaultRetryPolicy.
	Retry core.RetryPolicy
	// Transport, when non-nil, builds the transport Run/RunContext executes
	// over instead of the default in-memory fabric — the seam fault-injection
	// and custom interconnects plug into.
	Transport TransportFactory
	// Journal, when non-empty, is the directory where every rank's lineage
	// ledger is persisted as a segmented CRC32C record log
	// (internal/journal): rank r journals under Journal/rank-r. A run
	// started over an existing journal resumes — journaled tasks replay
	// their recorded outputs instead of re-executing, so only the
	// un-journaled frontier runs. Journaling implies fault-tolerant
	// bookkeeping (sequence-stamped messages, receiver dedup) even outside
	// RunElastic.
	Journal string
	// JournalSync selects the journal's fsync policy. The zero value
	// (journal.SyncEveryRecord) makes every recorded task crash-durable;
	// see journal.SyncPolicy for the cheaper relaxations.
	JournalSync journal.SyncPolicy
	// JournalCommitInterval and JournalCommitRecords tune the
	// journal.SyncGroupCommit policy's commit window (time and record
	// bounds). Zero keeps the journal defaults (2ms, 64 records); both are
	// ignored by the other sync policies.
	JournalCommitInterval time.Duration
	JournalCommitRecords  int
	// HeartbeatInterval and HeartbeatTimeout tune the wire transport's
	// failure detector for meshes built from this controller's WireOptions
	// template. Zero keeps the wire defaults (1s interval, 4x timeout).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// WireTier selects the wire transport tier for meshes built from this
	// controller's WireOptions template: wire.TierAuto (default) rides
	// unix-domain sockets between co-located ranks and TCP across hosts;
	// wire.TierTCP and wire.TierUnix force one transport.
	WireTier wire.Tier

	// Validation bookkeeping stamped by the functional options so
	// conflicting combinations surface as errors at Initialize instead of
	// silently letting the last option win. The struct form leaves these
	// zero and is validated on its field values alone.
	syncSet  bool
	syncWas  journal.SyncPolicy
	groupSet bool
	optErr   error
}

// validate rejects option combinations with no coherent meaning: an
// explicit WithJournalSync policy fighting WithJournalGroupCommit, or a
// negative commit window. It returns the first error a functional option
// recorded while being applied.
func (o *Options) validate() error {
	if o.optErr != nil {
		return o.optErr
	}
	if o.syncSet && o.groupSet && o.syncWas != journal.SyncGroupCommit {
		return fmt.Errorf("mpi: WithJournalSync(%v) conflicts with WithJournalGroupCommit (which implies %v); pass one of them",
			o.syncWas, journal.SyncGroupCommit)
	}
	if o.JournalCommitInterval < 0 {
		return fmt.Errorf("mpi: negative journal commit interval %v", o.JournalCommitInterval)
	}
	if o.JournalCommitRecords < 0 {
		return fmt.Errorf("mpi: negative journal commit record bound %d", o.JournalCommitRecords)
	}
	return nil
}

// Controller executes task graphs in MPI style. Create one, Initialize it
// with a graph and task map, register callbacks, then Run.
type Controller struct {
	opt       Options
	graph     core.TaskGraph
	tmap      core.TaskMap
	reg       *core.Registry
	prio      *core.CriticalPaths
	schedObs  core.SchedObserver
	replayObs core.ReplayObserver
	recObs    core.RecoveryObserver

	// Stats from the last Run.
	lastStats fabric.Stats

	// Stats from the last journaled run (guarded separately: concurrent
	// RunRank calls on one controller may finish in any order).
	jmu    sync.Mutex
	jstats JournalStats
}

// JournalStats summarizes the last journaled run of a controller: how much
// completed work the journal carried into the run, how much of it was
// replayed instead of re-executed, and whether durability degraded.
type JournalStats struct {
	// Restored counts tasks inherited from the journal at open — completed
	// work a resumed run does not repeat.
	Restored int
	// Replayed counts tasks whose recorded outputs were re-emitted without
	// running the callback.
	Replayed int
	// Executed counts callback executions.
	Executed int
	// StoreErrors counts failed journal appends; the affected entries stay
	// pinned in memory, so only durability (not correctness) degraded.
	StoreErrors int
}

// JournalStats returns the journal counters of the last journaled run (or
// rank, for RunRank). Zero when the controller has no journal configured.
func (c *Controller) JournalStats() JournalStats {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	return c.jstats
}

// recordJournalStats aggregates the given ledgers into the controller's
// last-run journal counters.
func (c *Controller) recordJournalStats(leds []*core.Ledger) {
	var js JournalStats
	for _, l := range leds {
		if l == nil {
			continue
		}
		js.Restored += l.Restored()
		js.Replayed += l.Replays()
		js.Executed += l.Executions()
		js.StoreErrors += l.StoreErrors()
	}
	c.jmu.Lock()
	c.jstats = js
	c.jmu.Unlock()
}

// openLedger opens rank's slice of the controller's journal directory and
// returns a ledger journaling through it. The caller owns the store and
// must Close it after the run.
func (c *Controller) openLedger(rank int) (*core.Ledger, *journal.LedgerStore, error) {
	dir := filepath.Join(c.opt.Journal, fmt.Sprintf("rank-%d", rank))
	store, err := journal.OpenLedgerStore(dir, journal.Options{
		Sync:           c.opt.JournalSync,
		CommitInterval: c.opt.JournalCommitInterval,
		CommitRecords:  c.opt.JournalCommitRecords,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("mpi: rank %d journal: %w", rank, err)
	}
	return core.NewLedgerBacked(store, 0), store, nil
}

// openLedgers opens one durable ledger per rank under the controller's
// journal directory. The returned close function records the run's journal
// counters and closes every store exactly once — callers may defer it on
// every exit path (including error and cancellation unwinds) without
// double-closing. On an open error the stores opened so far are closed
// before returning.
func (c *Controller) openLedgers(ranks int) (leds []*core.Ledger, close func(), err error) {
	leds = make([]*core.Ledger, ranks)
	stores := make([]*journal.LedgerStore, ranks)
	for r := 0; r < ranks; r++ {
		led, store, err := c.openLedger(r)
		if err != nil {
			for _, s := range stores[:r] {
				s.Close()
			}
			return nil, nil, err
		}
		leds[r], stores[r] = led, store
	}
	var once sync.Once
	return leds, func() {
		once.Do(func() {
			c.recordJournalStats(leds)
			for _, s := range stores {
				s.Close()
			}
		})
	}, nil
}

// New returns an MPI controller. Configuration is functional-options style,
// applied left to right:
//
//	mpi.New(mpi.WithWorkers(4), mpi.WithRetry(policy))
func New(opts ...Option) *Controller {
	var opt Options
	for _, o := range opts {
		o.apply(&opt)
	}
	return newFromOptions(opt)
}

// newFromOptions builds a controller from a resolved configuration — the
// internal seam the service uses to stamp per-run controllers from its
// option template.
func newFromOptions(opt Options) *Controller {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	c := &Controller{opt: opt, reg: core.NewRegistry()}
	if so, ok := opt.Observer.(core.SchedObserver); ok {
		c.schedObs = so
	}
	if ro, ok := opt.Observer.(core.ReplayObserver); ok {
		c.replayObs = ro
	}
	if ro, ok := opt.Observer.(core.RecoveryObserver); ok {
		c.recObs = ro
	}
	return c
}

// Initialize implements core.Controller. The task map is required: it
// determines which tasks are assigned to which rank. Not all ranks must be
// assigned tasks, nor is there a limit per rank — running a graph on fewer
// ranks trades distributed for shared-memory parallelism.
func (c *Controller) Initialize(g core.TaskGraph, m core.TaskMap) error {
	if err := c.opt.validate(); err != nil {
		return err
	}
	if g == nil {
		return fmt.Errorf("mpi: nil task graph")
	}
	if m == nil {
		return fmt.Errorf("mpi: the MPI controller requires a task map")
	}
	if err := core.Validate(g); err != nil {
		return err
	}
	if err := core.ValidateMap(g, m); err != nil {
		return err
	}
	prio, err := core.CriticalPathsFor(g)
	if err != nil {
		return err
	}
	c.graph, c.tmap, c.prio = g, m, prio
	return nil
}

// RegisterCallback implements core.Controller.
func (c *Controller) RegisterCallback(cb core.CallbackId, fn core.Callback) error {
	if c.graph == nil {
		return core.ErrNotInitialized
	}
	return c.reg.Register(cb, fn)
}

// Stats returns the inter-rank traffic of the last Run.
func (c *Controller) Stats() fabric.Stats { return c.lastStats }

// budget returns the worker count for a run over the given rank count,
// bounded by the number of tasks that can ever be in flight.
func (c *Controller) budget(ranks int) int {
	n := c.opt.Workers
	if size := c.graph.Size(); n > size {
		n = size
	}
	if n < 1 {
		n = 1
	}
	if c.opt.NoSteal && n < ranks {
		// Without stealing every rank needs a homed worker of its own.
		n = ranks
	}
	return n
}

// newPool builds the shared work-stealing executor for a run over ranks.
func (c *Controller) newPool(ranks int) *fabric.Pool {
	n := c.budget(ranks)
	return fabric.NewPool(ranks, fabric.RoundRobinHomes(n, ranks),
		fabric.PoolOptions{FIFO: c.opt.FIFO, NoSteal: c.opt.NoSteal})
}

// Run implements core.Controller.
func (c *Controller) Run(initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	return c.RunContext(context.Background(), initial)
}

// RunContext implements core.Controller: Run with cancellation and deadline
// propagation. When the context ends, the fabric is cancelled so every rank
// loop and blocked receive unwinds promptly, and the call returns an error
// wrapping core.ErrCancelled.
func (c *Controller) RunContext(ctx context.Context, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	if c.graph == nil {
		return nil, core.ErrNotInitialized
	}
	if err := c.reg.Covers(c.graph); err != nil {
		return nil, err
	}
	if err := core.CheckInitial(c.graph, initial); err != nil {
		return nil, err
	}

	ranks := c.tmap.ShardCount()

	// Journaled runs give every rank a durable ledger before any task runs:
	// a fresh directory journals progress, an existing one resumes from it.
	var leds []*core.Ledger
	if c.opt.Journal != "" {
		var closeLeds func()
		var err error
		leds, closeLeds, err = c.openLedgers(ranks)
		if err != nil {
			return nil, err
		}
		defer closeLeds()
	}

	var fab fabric.Transport
	switch {
	case c.opt.Transport != nil:
		fab = c.opt.Transport(ranks)
	case c.opt.Blocking:
		fab = fabric.NewBlocking(ranks)
	default:
		fab = fabric.New(ranks)
	}
	var pool *fabric.Pool
	if !c.opt.Inline {
		pool = c.newPool(ranks)
		defer pool.Close()
	}

	results, err := c.runAllRanks(ctx, fab, pool, leds, initial)
	c.lastStats = fab.Snapshot()
	return results, err
}

// runAllRanks drives every rank of one dataflow execution over fab,
// dispatching onto pool (nil = inline execution). It owns abort propagation
// and result merging but neither the transport nor the pool — both outlive
// the call, which is what lets a resident Service run a stream of graphs
// over one warm fabric and executor (each Submit passing its run's demuxed
// transport view). One-shot paths (RunContext) build and tear down a fresh
// pair per call.
func (c *Controller) runAllRanks(ctx context.Context, fab fabric.Transport, pool *fabric.Pool, leds []*core.Ledger, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	ranks := c.tmap.ShardCount()
	results := make(map[core.TaskId][]core.Payload)
	var resMu sync.Mutex
	var firstErr error
	var errMu sync.Mutex
	abort := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		fab.Cancel()
	}
	stop := watchContext(ctx, abort)
	defer stop()

	env := &runEnv{
		tmap:    c.tmap,
		fab:     fab,
		pool:    pool,
		abort:   abort,
		results: results,
		resMu:   &resMu,
		leds:    leds,
	}
	if leds != nil {
		env.seq = make([]atomic.Uint64, ranks)
	}
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := c.runRank(rank, env, initial); err != nil {
				abort(err)
			}
		}(r)
	}
	wg.Wait()

	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// watchContext aborts the run when the context ends. The returned stop
// function retires the watcher; it must be called before the run's results
// are returned so a late cancellation cannot fire mid-teardown. A context
// that has already ended aborts synchronously: left to the watcher, a run
// that finishes before the watcher is scheduled would retire it unfired
// and succeed despite the cancellation.
func watchContext(ctx context.Context, abort func(error)) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if ctx.Err() != nil {
		abort(core.Cancelled(ctx))
		return func() {}
	}
	stopc := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			abort(core.Cancelled(ctx))
		case <-stopc:
		}
	}()
	return func() { close(stopc) }
}

// Fingerprint returns the canonical fingerprint of the controller's graph
// and registered callbacks — what a rank presents during the wire
// rendezvous handshake so mismatched binaries are rejected before any
// message flows. It is zero before Initialize.
func (c *Controller) Fingerprint() core.Fingerprint {
	if c.graph == nil {
		return core.Fingerprint{}
	}
	return core.GraphFingerprint(c.graph, c.reg.Ids())
}

// WireOptions returns the wire transport template this controller implies:
// its graph fingerprint plus any heartbeat tuning (WithHeartbeat). Callers
// building a mesh fill in Rank/Ranks/Addr (wire.Mesh does so itself).
func (c *Controller) WireOptions() wire.Options {
	return wire.Options{
		Fingerprint:       c.Fingerprint(),
		HeartbeatInterval: c.opt.HeartbeatInterval,
		HeartbeatTimeout:  c.opt.HeartbeatTimeout,
		Tier:              c.opt.WireTier,
	}
}

// RunRank executes exactly one rank of the dataflow over the provided
// transport — the multi-process entry point. Where Run spawns every rank as
// a goroutine over an in-memory fabric sharing one work-stealing executor,
// RunRank drives a single rank whose peers live behind the transport (other
// OS processes over the TCP fabric, or other in-process RunRank calls
// sharing a transport per rank); its executor serves only the local rank,
// so the worker budget applies per process.
//
// initial must contain exactly the external inputs of this rank's tasks.
// RunRank returns the sink outputs produced by local tasks. On any local
// failure the transport is cancelled so every peer unwinds; a peer or
// transport failure surfaces as the transport's typed error.
//
// RunRank is safe to call concurrently for different ranks on one shared
// controller (it does not update Stats — consult the transport's Snapshot).
func (c *Controller) RunRank(rank int, tr fabric.Transport, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	return c.runRankOn(context.Background(), rank, tr, initial, nil, nil)
}

// runRankOn is the common single-rank entry: RunRank passes a nil ledger
// and map (plain execution over c.tmap); the recovery coordinator passes
// the rank's persistent lineage ledger and the epoch's rebalanced task map.
func (c *Controller) runRankOn(ctx context.Context, rank int, tr fabric.Transport, initial map[core.TaskId][]core.Payload, led *core.Ledger, tmap core.TaskMap) (map[core.TaskId][]core.Payload, error) {
	if c.graph == nil {
		return nil, core.ErrNotInitialized
	}
	if tmap == nil {
		tmap = c.tmap
	}
	if err := c.reg.Covers(c.graph); err != nil {
		return nil, err
	}
	if got, want := tr.Ranks(), tmap.ShardCount(); got != want {
		return nil, fmt.Errorf("mpi: transport has %d ranks, task map shards over %d", got, want)
	}
	if rank < 0 || rank >= tr.Ranks() {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, tr.Ranks())
	}
	if err := checkLocalInitial(c.graph, tmap, rank, initial); err != nil {
		tr.Cancel()
		return nil, err
	}

	// A journal-configured plain run (RunRank without a recovery
	// coordinator) opens its own durable ledger: outputs journal as tasks
	// complete, and a restart over the same directory replays them.
	if led == nil && c.opt.Journal != "" {
		var store *journal.LedgerStore
		var err error
		led, store, err = c.openLedger(rank)
		if err != nil {
			tr.Cancel()
			return nil, err
		}
		defer func() {
			c.recordJournalStats([]*core.Ledger{led})
			store.Close()
		}()
	}

	var pool *fabric.Pool
	if !c.opt.Inline {
		// All workers home on the one local rank; peer deques stay empty.
		n := c.opt.Workers
		if local := len(tmap.Ids(core.ShardId(rank))); n > local {
			n = local
		}
		if n < 1 {
			n = 1
		}
		homes := make([]int, n)
		for i := range homes {
			homes[i] = rank
		}
		pool = fabric.NewPool(tr.Ranks(), homes,
			fabric.PoolOptions{FIFO: c.opt.FIFO, NoSteal: c.opt.NoSteal})
		defer pool.Close()
	}

	var firstErr error
	var errMu sync.Mutex
	abort := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		tr.Cancel()
	}
	stop := watchContext(ctx, abort)
	defer stop()

	results := make(map[core.TaskId][]core.Payload)
	var resMu sync.Mutex
	env := &runEnv{
		tmap:    tmap,
		fab:     tr,
		pool:    pool,
		abort:   abort,
		results: results,
		resMu:   &resMu,
	}
	if led != nil {
		env.leds = make([]*core.Ledger, tr.Ranks())
		env.leds[rank] = led
		env.seq = make([]atomic.Uint64, tr.Ranks())
	}
	if err := c.runRank(rank, env, initial); err != nil {
		abort(err)
	}
	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// checkLocalInitial verifies rank-local external inputs: exactly the
// ExternalInput slots of the rank's tasks must be covered, no more, no less.
func checkLocalInitial(g core.TaskGraph, m core.TaskMap, rank int, initial map[core.TaskId][]core.Payload) error {
	local, err := core.LocalGraph(g, m, core.ShardId(rank))
	if err != nil {
		return err
	}
	want := make(map[core.TaskId]int)
	for _, t := range local {
		n := 0
		for _, in := range t.Incoming {
			if in == core.ExternalInput {
				n++
			}
		}
		if n > 0 {
			want[t.Id] = n
		}
	}
	for id, ps := range initial {
		n, ok := want[id]
		if !ok {
			return fmt.Errorf("mpi: rank %d received inputs for task %d, which expects none (or is not local)", rank, id)
		}
		if len(ps) != n {
			return fmt.Errorf("mpi: rank %d task %d expects %d external inputs, got %d", rank, id, n, len(ps))
		}
		delete(want, id)
	}
	for id := range want {
		return fmt.Errorf("mpi: rank %d task %d is missing its external inputs", rank, id)
	}
	return nil
}

// scratchPool recycles the per-execution message scratch slices the workers
// batch a task's outputs into; with the shared executor workers are no
// longer rank-scoped, so scratch lives in a pool instead of a worker local.
var scratchPool = sync.Pool{New: func() any { return new([]fabric.Message) }}

// runEnv bundles the state one dataflow execution threads through the rank
// loops: the task map of this epoch (recovery may differ from Initialize's),
// the transport, the shared executor, the abort hook, the merged sink
// results, and — for fault-tolerant runs — the rank's lineage ledger plus
// the per-home-rank egress sequence counters that give messages a dedup
// identity.
type runEnv struct {
	tmap    core.TaskMap
	fab     fabric.Transport
	pool    *fabric.Pool
	abort   func(error)
	results map[core.TaskId][]core.Payload
	resMu   *sync.Mutex
	leds    []*core.Ledger  // per-rank ledgers; nil outside ledgered runs
	seq     []atomic.Uint64 // nil outside fault-tolerant runs
}

// ledger returns rank's lineage ledger, or nil when the run keeps none.
// RunContext shares one env across every in-process rank, so ledgers are
// indexed rather than a single field.
func (e *runEnv) ledger(rank int) *core.Ledger {
	if e.leds == nil {
		return nil
	}
	return e.leds[rank]
}

// runRank is the per-rank controller loop: it drains the rank's mailbox,
// tracks input readiness and dispatches ready tasks into the rank's
// priority deque on the shared executor (pool is nil only in Inline mode).
func (c *Controller) runRank(rank int, env *runEnv, initial map[core.TaskId][]core.Payload) error {
	local, err := core.LocalGraph(c.graph, env.tmap, core.ShardId(rank))
	if err != nil {
		return err
	}
	if len(local) == 0 {
		return nil // rank with no assigned tasks
	}
	tasks := make(map[core.TaskId]core.Task, len(local))
	for _, t := range local {
		tasks[t.Id] = t
	}

	st := core.NewDataflowState(c.graph)
	remaining := len(local)
	led := env.ledger(rank)

	// execute runs one ready task on whichever worker picked it up and
	// routes its outputs. A failing task records the cause and cancels the
	// fabric so every rank unwinds. In a fault-tolerant run, a task whose
	// outputs are already in the lineage ledger is replayed — its recorded
	// wire forms are re-routed downstream without re-running the callback —
	// so a recovery epoch only pays for the undelivered frontier.
	execute := func(t core.Task, in []core.Payload, scratch []fabric.Message) []fabric.Message {
		if led != nil {
			if rec, ok := led.Outputs(t.Id); ok {
				// The inputs were assembled only to satisfy readiness; the
				// replayed outputs come from the ledger.
				for i := range in {
					in[i].Release()
				}
				out := make([]core.Payload, len(rec))
				for s, b := range rec {
					cp := make([]byte, len(b))
					copy(cp, b)
					out[s] = core.Buffer(cp)
				}
				led.CountReplay()
				if c.replayObs != nil {
					c.replayObs.TaskReplayed(t.Id, env.tmap.Shard(t.Id), t.Callback)
				}
				scratch, err := c.route(rank, env, t, 0, out, scratch)
				if err != nil {
					env.abort(err)
				}
				return scratch
			}
		}
		// A dead input cancels the task: the callback is skipped and dead
		// tokens propagate on every output slot. Cancellation journals like
		// a normal execution, so a resumed run replays it instead of
		// re-deciding.
		if out, cancelled := core.CancelDead(t, in); cancelled {
			var attempt uint32
			if led != nil {
				attempt = uint32(led.BeginAttempt(t.Id))
				recordOutputs(led, t, out)
			}
			scratch, err := c.route(rank, env, t, attempt, out, scratch)
			if err != nil {
				env.abort(err)
			}
			return scratch
		}
		// Detach private copies of shared fan-out wire forms on the worker,
		// so the copies of independent consumers proceed in parallel instead
		// of serializing on the receive loop.
		for i := range in {
			in[i] = in[i].Own()
		}
		var attempt uint32
		if led != nil {
			attempt = uint32(led.BeginAttempt(t.Id))
		}
		out, err := c.runTask(t, in, env.tmap.Shard(t.Id))
		if err != nil {
			env.abort(err)
			return scratch
		}
		if led != nil {
			recordOutputs(led, t, out)
		}
		scratch, err = c.route(rank, env, t, attempt, out, scratch)
		if err != nil {
			env.abort(err)
		}
		return scratch
	}

	// pend tracks this rank's dispatched-but-unfinished tasks; runRank only
	// returns once its routes completed, exactly as the old per-rank pool's
	// Wait did. The executor itself is shared and outlives the rank loop.
	var pend sync.WaitGroup
	defer pend.Wait()

	var inlineScratch []fabric.Message
	dispatch := func(t core.Task, in []core.Payload) {
		if c.opt.Inline {
			inlineScratch = execute(t, in, inlineScratch)
			return
		}
		// Priority dispatch: the deque hands workers the most critical
		// ready task — the one with the longest downstream chain — not the
		// oldest (§IV-A schedules greedily; the priority decides among
		// simultaneously ready tasks and cannot affect outputs).
		var enq time.Time
		if c.schedObs != nil {
			enq = time.Now()
		}
		pend.Add(1)
		env.pool.Submit(rank, int64(c.prio.Depth(t.Id)), func() {
			defer pend.Done()
			if c.schedObs != nil {
				c.schedObs.TaskQueued(t.Id, enq, time.Now())
			}
			sp := scratchPool.Get().(*[]fabric.Message)
			*sp = execute(t, in, *sp)
			scratchPool.Put(sp)
		})
	}

	// Feed external inputs for local leaf tasks, then dispatch tasks that
	// are immediately ready.
	for _, t := range local {
		for _, p := range initial[t.Id] {
			if err := st.DeliverExternal(t.Id, p); err != nil {
				return err
			}
		}
	}
	for _, t := range local {
		if in, ok := st.Take(t.Id); ok {
			dispatch(t, in)
			remaining--
		}
	}

	// Receive loop: every arriving message targets a local task. Tasks
	// become ready in the order their last input arrives and enter the
	// priority deque; messages are drained in batches so a burst costs one
	// mailbox lock, not one per message. Dispatch never blocks, so the loop
	// keeps draining and accounting inputs while every worker is busy.
	//
	// Fault-tolerant runs additionally dedup by message sequence id: a
	// redelivered duplicate (injected or transport-retried) would otherwise
	// fill a second input slot and corrupt readiness accounting.
	batch := make([]fabric.Message, 64)
	var seen []map[uint64]struct{}
	if led != nil {
		seen = make([]map[uint64]struct{}, env.fab.Ranks())
	}
	for remaining > 0 {
		n, ok := env.fab.RecvBatch(rank, batch)
		if !ok {
			// Delivery became impossible. For a controller-initiated abort
			// the aborting goroutine recorded the cause and Err() is nil;
			// a transport-level failure (lost peer, broken wire) surfaces
			// here as the typed transport error.
			return env.fab.Err()
		}
		for i := 0; i < n; i++ {
			m := batch[i]
			batch[i] = fabric.Message{} // drop the payload reference
			if seen != nil && m.Seq != 0 {
				s := seen[m.From]
				if s == nil {
					s = make(map[uint64]struct{})
					seen[m.From] = s
				}
				if _, dup := s[m.Seq]; dup {
					m.Payload.Release()
					continue
				}
				s[m.Seq] = struct{}{}
			}
			t, ok := tasks[m.Dest]
			if !ok {
				return fmt.Errorf("mpi: rank %d received message for non-local task %d", rank, m.Dest)
			}
			if err := st.Deliver(m.Dest, m.Src, m.Payload); err != nil {
				return err
			}
			if in, ok := st.Take(m.Dest); ok {
				dispatch(t, in)
				remaining--
			}
		}
	}
	return nil
}

// recordOutputs retains a completed task's serialized outputs in the
// lineage ledger. Best effort: if any slot cannot serialize (an object
// payload without Serializable) the task stays unrecorded and simply
// re-executes in a recovery epoch — always correct under the idempotence
// contract, just not accelerated.
func recordOutputs(led *core.Ledger, t core.Task, out []core.Payload) {
	wires := make([][]byte, len(out))
	for i := range out {
		cp, err := out[i].CloneForWire()
		if err != nil {
			return
		}
		wires[i] = cp.Data
	}
	led.Record(t.Id, wires)
}

// runTask executes one task's callback. shard is the task's placement in
// the executing run's task map (a recovery epoch's may differ from the one
// given to Initialize).
func (c *Controller) runTask(t core.Task, in []core.Payload, shard core.ShardId) ([]core.Payload, error) {
	fn, ok := c.reg.Lookup(t.Callback)
	if !ok {
		return nil, fmt.Errorf("%w: callback %d", core.ErrUnregisteredCallback, t.Callback)
	}
	out, err := core.SafeInvoke(fn, in, t.Id)
	if err != nil {
		return nil, fmt.Errorf("mpi: task %d (callback %d): %w", t.Id, t.Callback, err)
	}
	if len(out) != len(t.Outgoing) {
		return nil, fmt.Errorf("mpi: task %d produced %d outputs, graph declares %d slots", t.Id, len(out), len(t.Outgoing))
	}
	if c.opt.Observer != nil {
		c.opt.Observer.TaskExecuted(t.Id, shard, t.Callback)
	}
	return out, nil
}

// route delivers a finished task's outputs: sink slots into the result map,
// intra-rank single-consumer edges as in-memory messages, everything else
// as wire forms over the fabric.
//
// Copy-on-fan-out: a slot with several wire consumers is serialized exactly
// once and the immutable wire form is shared between them through a
// refcounted wrapper (core.SharedPayload); each consumer detaches a private
// copy at delivery. A slot with a single wire consumer hands the
// relinquished buffer over without any copy. All of a task's messages are
// collected into scratch and enqueued with one batched send per destination
// run, so the whole fan-out costs one serialization and O(destinations)
// lock acquisitions. The (possibly grown) scratch slice is returned for
// reuse by the calling worker.
//
// rank is the task's home rank (where its inputs were assembled), not the
// rank of the stealing worker: the in-memory shortcut and the message From
// field must follow placement, or outputs would change with the schedule.
//
// In fault-tolerant runs every message is stamped with a per-home-rank
// sequence id (the receiver's dedup identity) and the producing task's
// attempt number.
func (c *Controller) route(rank int, env *runEnv, t core.Task, attempt uint32, out []core.Payload, scratch []fabric.Message) ([]fabric.Message, error) {
	batch := scratch[:0]
	for slot, consumers := range t.Outgoing {
		if len(consumers) == 0 {
			// A dead token reaching a sink is a deactivated branch's
			// non-result; only live payloads leave the dataflow.
			if core.IsDead(out[slot]) {
				continue
			}
			env.resMu.Lock()
			env.results[t.Id] = append(env.results[t.Id], out[slot])
			env.resMu.Unlock()
			continue
		}
		p := out[slot]
		// The last intra-rank consumer receives the payload pointer
		// in-memory (§IV-A); every other consumer needs the wire form.
		inMemoryIdx := -1
		if !c.opt.AlwaysSerialize {
			last := len(consumers) - 1
			if int(env.tmap.Shard(consumers[last])) == rank {
				inMemoryIdx = last
			}
		}
		wireConsumers := len(consumers)
		if inMemoryIdx >= 0 {
			wireConsumers--
		}
		var wire core.Payload
		var err error
		switch {
		case wireConsumers == 0:
			// Single local consumer: pure pointer pass.
		case wireConsumers == 1 && inMemoryIdx < 0:
			// Single wire consumer and nothing else references the slot:
			// the producer relinquished the buffer, hand it over as-is.
			wire, err = p.WireForm()
		default:
			// Fan-out: serialize once, share the immutable wire form. If
			// the raw payload is also pointer-passed locally, the shared
			// form must not alias it (the local consumer may mutate).
			wire, err = core.SharedPayload(p, wireConsumers, inMemoryIdx >= 0)
		}
		if err != nil {
			return batch, fmt.Errorf("mpi: task %d output slot %d: %w", t.Id, slot, err)
		}
		for i, dest := range consumers {
			mp := wire
			if i == inMemoryIdx {
				mp = p
			}
			m := fabric.Message{From: rank, To: int(env.tmap.Shard(dest)), Src: t.Id, Dest: dest, Payload: mp, Attempt: attempt}
			if env.seq != nil {
				m.Seq = env.seq[rank].Add(1)
			}
			batch = append(batch, m)
		}
	}
	err := env.fab.SendN(batch)
	clear(batch) // drop payload references until the next task reuses it
	return batch, err
}

var _ core.Controller = (*Controller)(nil)
