package mpi

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/journal"
)

// Epoch-based recovery. RunElastic is the one driver for fault-tolerant
// runs: a coordinator runs epochs until one completes. Every member keeps a
// lineage ledger of its completed tasks' serialized outputs across epochs;
// the next epoch replays recorded outputs instead of re-executing them, so
// only the undelivered frontier runs again. No checkpointing: correctness
// rests on the paper's idempotence contract.
//
// A Membership registry holds the member set. Over a fixed membership
// (NewMembership, nobody joins or drains) this is plain peer-loss
// recovery: a dead member is evicted, core.RebalanceShards deals its tasks
// round-robin over the survivors (who keep their own) and the next epoch
// runs. Join and drain requests additionally fence the running epoch at a
// journal-consistent point (Fabric.Fence suspends liveness timers,
// group-commit journals are flushed, the epoch collapses), apply in ONE
// epoch bump, and hand the moved tasks' lineage to their new owners.
// Partition hardening (classifyDead) distinguishes "partitioned but alive"
// from "dead": a rank that itself reported a peer loss was alive to report
// it and is never evicted, so an asymmetric or flapping link costs at most
// one epoch bump instead of an eviction storm.

// errFenced marks an epoch torn down by a membership fence rather than a
// failure. Fenced epochs do not consume the retry budget.
var errFenced = errors.New("mpi: epoch fenced for membership change")

// Fencer is the optional transport hook the fence uses to suspend liveness
// timers while ranks freeze at the barrier (implemented by wire.Fabric).
type Fencer interface {
	Fence(on bool)
}

// Membership is the shared registry of an elastic run's member set. Members
// are identified by stable physical ids: the initial ranks occupy
// [0, ranks) and every joiner gets a fresh id, so per-member journals and
// lineage ledgers survive renumbering across epochs. Join and Drain may be
// called from any goroutine, before or during a run; the coordinator
// coalesces everything pending into the next epoch boundary — one epoch
// bump per batch of membership events, however many arrive together.
type Membership struct {
	mu       sync.Mutex
	active   []core.ShardId
	pendJoin []core.ShardId
	pendDrop []core.ShardId
	nextID   core.ShardId
	joinAt   time.Time // earliest unapplied join request
	drainAt  time.Time // earliest unapplied drain request
	signal   chan struct{}
}

// NewMembership returns a registry whose initial members are 0..ranks-1.
func NewMembership(ranks int) (*Membership, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mpi: membership needs at least one rank, got %d", ranks)
	}
	m := &Membership{
		active: make([]core.ShardId, ranks),
		nextID: core.ShardId(ranks),
		signal: make(chan struct{}),
	}
	for i := range m.active {
		m.active[i] = core.ShardId(i)
	}
	return m, nil
}

// Join registers a new member and returns its identity. The member becomes
// part of the rank set at the next epoch boundary (fencing the current
// epoch when one is running).
func (m *Membership) Join() core.ShardId {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextID
	m.nextID++
	m.pendJoin = append(m.pendJoin, id)
	if m.joinAt.IsZero() {
		m.joinAt = time.Now()
	}
	m.wakeLocked()
	return id
}

// Drain marks a member for graceful removal: at the next epoch boundary its
// shards are handed off (lineage adopted by the new owners) and it leaves
// the rank set without being declared lost. Draining the last remaining
// member is refused.
func (m *Membership) Drain(id core.ShardId) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	found := false
	for _, a := range m.active {
		if a == id {
			found = true
			break
		}
	}
	if !found {
		for _, j := range m.pendJoin {
			if j == id {
				found = true
				break
			}
		}
	}
	if !found {
		return fmt.Errorf("mpi: drain: member %d is not part of the membership", id)
	}
	for _, d := range m.pendDrop {
		if d == id {
			return nil // idempotent
		}
	}
	if len(m.active)+len(m.pendJoin)-len(m.pendDrop) <= 1 {
		return fmt.Errorf("mpi: drain: member %d is the last member", id)
	}
	m.pendDrop = append(m.pendDrop, id)
	if m.drainAt.IsZero() {
		m.drainAt = time.Now()
	}
	m.wakeLocked()
	return nil
}

// wakeLocked signals a waiting coordinator that pending changes exist.
func (m *Membership) wakeLocked() {
	select {
	case <-m.signal:
	default:
		close(m.signal)
	}
}

// wait returns a channel that is closed while membership changes are
// pending (a fence trigger for the running epoch).
func (m *Membership) wait() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.signal
}

// Members returns the active member identities in epoch order.
func (m *Membership) Members() []core.ShardId {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]core.ShardId(nil), m.active...)
}

// take applies every pending change to the active set and returns what
// changed plus the earliest request times (for join/drain latency
// accounting). Called by the coordinator at an epoch boundary.
func (m *Membership) take() (joins, drains []core.ShardId, joinAt, drainAt time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	joins, drains = m.pendJoin, m.pendDrop
	joinAt, drainAt = m.joinAt, m.drainAt
	m.pendJoin, m.pendDrop = nil, nil
	m.joinAt, m.drainAt = time.Time{}, time.Time{}
	m.active = append(m.active, joins...)
	if len(drains) > 0 {
		drop := make(map[core.ShardId]bool, len(drains))
		for _, d := range drains {
			drop[d] = true
		}
		next := m.active[:0]
		for _, a := range m.active {
			if !drop[a] {
				next = append(next, a)
			}
		}
		m.active = next
	}
	select {
	case <-m.signal:
		m.signal = make(chan struct{}) // re-arm
	default:
	}
	return joins, drains, joinAt, drainAt
}

// evict removes a member declared dead (not drained): no hand-off, its
// unrecorded work re-executes elsewhere.
func (m *Membership) evict(id core.ShardId) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.active[:0]
	for _, a := range m.active {
		if a != id {
			next = append(next, a)
		}
	}
	m.active = next
}

// ConnectFunc builds the per-rank transports of one recovery epoch. It is
// called with the epoch number (1 = the failure-free first attempt) and the
// number of surviving ranks; it returns one transport per logical rank,
// all connected to each other (for the wire transport: a fresh mesh whose
// handshake carries the epoch, so stragglers from a previous epoch are
// rejected at rendezvous).
type ConnectFunc func(epoch, ranks int) ([]fabric.Transport, error)

// InjectFunc optionally wraps a rank's transport — the hook the
// deterministic fault-injection harness (internal/faultinject) plugs into.
type InjectFunc func(epoch, rank int, tr fabric.Transport) fabric.Transport

// ElasticOptions parameterizes RunElastic.
type ElasticOptions struct {
	// Connect is required: it builds each epoch's transports.
	Connect ConnectFunc
	// Inject, when non-nil, wraps each rank's transport (fault injection).
	Inject InjectFunc
	// Initial is the dataflow's full set of external inputs. RunElastic
	// partitions it per epoch map and clones the payloads per attempt, so
	// the inputs must be serializable.
	Initial map[core.TaskId][]core.Payload
	// Membership is required: the shared registry join/drain requests flow
	// through. A registry nobody joins or drains is a fixed membership.
	Membership *Membership
}

// maxFences bounds membership-fence rebuilds. Fenced epochs do not consume
// the retry budget — a retry is a failure, a fence is a request — but
// runaway churn must still terminate.
const maxFences = 32

// ElasticReport summarizes an elastic run.
type ElasticReport struct {
	// Epochs counts every execution attempt: the first, fenced rebuilds and
	// failure retries.
	Epochs int
	// Fences counts epochs cut short by a membership change.
	Fences int
	// Joined and Drained list membership changes applied, in order.
	Joined  []core.ShardId
	Drained []core.ShardId
	// LostShards lists members declared dead (member identities).
	LostShards []core.ShardId
	// HandedOff counts recorded tasks whose lineage was adopted by a new
	// owner at an epoch boundary.
	HandedOff int
	// Replayed and Executed count the FINAL epoch only; on success
	// Replayed+Executed equals the task count (every task either replays
	// from a ledger or executes exactly once).
	Replayed int
	Executed int
	// TotalExecuted counts callback executions across all epochs.
	TotalExecuted int
	// JoinLatency and DrainLatency measure the most recent membership
	// event of each kind: request to running rebalanced epoch.
	JoinLatency  time.Duration
	DrainLatency time.Duration
	// RecoveryTime is the wall clock spent after the first failure or fence.
	RecoveryTime time.Duration
}

// RunElastic executes the dataflow with replay-based fault tolerance:
// epochs run until one completes over whatever member set the Membership
// registry holds, fencing and rebalancing on joins and drains, shrinking
// on real deaths, and retrying (without eviction) on partitions. See the
// comments above and DESIGN.md §10 and §16 for the protocol.
//
// The controller's retry policy (WithRetry) bounds the number of failed
// epochs, the backoff between them and each epoch's wall clock. A
// non-retryable failure (a callback error on a surviving rank) aborts
// immediately; exhausting the policy returns an error wrapping
// core.ErrRetriesExhausted; a finished ctx returns one wrapping
// core.ErrCancelled.
func (c *Controller) RunElastic(ctx context.Context, eo ElasticOptions) (map[core.TaskId][]core.Payload, ElasticReport, error) {
	var rep ElasticReport
	if c.graph == nil {
		return nil, rep, core.ErrNotInitialized
	}
	if eo.Connect == nil {
		return nil, rep, fmt.Errorf("mpi: RunElastic requires a Connect function")
	}
	if eo.Membership == nil {
		return nil, rep, fmt.Errorf("mpi: RunElastic requires a Membership")
	}
	if err := c.reg.Covers(c.graph); err != nil {
		return nil, rep, err
	}
	if err := core.CheckInitial(c.graph, eo.Initial); err != nil {
		return nil, rep, err
	}

	policy := c.opt.Retry.WithDefaults()
	ms := eo.Membership

	// Ledgers and journal stores are keyed by stable member identity and
	// opened lazily as members appear; they persist across epochs (and,
	// when journaled, across process restarts).
	ledgers := make(map[core.ShardId]*core.Ledger)
	stores := make(map[core.ShardId]*journal.LedgerStore)
	defer func() {
		leds := make([]*core.Ledger, 0, len(ledgers))
		for _, l := range ledgers {
			leds = append(leds, l)
		}
		if c.opt.Journal != "" {
			c.recordJournalStats(leds)
		}
		for _, s := range stores {
			s.Close()
		}
	}()
	ledgerFor := func(id core.ShardId) (*core.Ledger, error) {
		if l, ok := ledgers[id]; ok {
			return l, nil
		}
		if c.opt.Journal == "" {
			ledgers[id] = core.NewLedger()
			return ledgers[id], nil
		}
		led, store, err := c.openLedger(int(id))
		if err != nil {
			return nil, err
		}
		ledgers[id], stores[id] = led, store
		return led, nil
	}

	wantSinks := expectedSinks(c.graph)

	// prevOwner tracks each task's owner (member identity) as of the last
	// epoch map, the baseline hand-off diffs against. Before the first
	// epoch the base map's shard ids ARE member identities.
	prevOwner := make(map[core.TaskId]core.ShardId, len(c.graph.TaskIds()))
	for _, id := range c.graph.TaskIds() {
		prevOwner[id] = c.tmap.Shard(id)
	}

	var recoveryStart time.Time
	var lastErr error
	failures := 0
	for epoch := 1; ; epoch++ {
		rep.Epochs = epoch
		if err := ctx.Err(); err != nil {
			return nil, rep, core.Cancelled(ctx)
		}

		joins, drains, joinAt, drainAt := ms.take()
		rep.Joined = append(rep.Joined, joins...)
		rep.Drained = append(rep.Drained, drains...)
		members := ms.Members()
		if len(members) == 0 {
			return nil, rep, fmt.Errorf("mpi: every member lost: %w", core.ErrRetriesExhausted)
		}

		tmap, err := core.RebalanceShards(c.graph, c.tmap, members)
		if err != nil {
			return nil, rep, err
		}
		for _, id := range members {
			if _, err := ledgerFor(id); err != nil {
				return nil, rep, err
			}
		}

		// Hand-off: every recorded task whose owner changed is adopted into
		// the new owner's ledger (journaled when backed), BEFORE the epoch
		// runs — group-commit flush happened at the fence, so the transfer
		// is replayable even if the donor's journal is retired.
		for _, id := range c.graph.TaskIds() {
			owner := members[tmap.Shard(id)]
			was := prevOwner[id]
			if owner != was {
				if donor, ok := ledgers[was]; ok {
					if heir := ledgers[owner]; heir.Adopt(donor, id) {
						rep.HandedOff++
					}
				}
				prevOwner[id] = owner
			}
		}

		merged, lost, fenced, err := c.runElasticEpoch(ctx, epoch, tmap, members, ledgers, stores, wantSinks, eo, policy, &rep, joinAt, drainAt)
		if err == nil {
			if !recoveryStart.IsZero() {
				rep.RecoveryTime = time.Since(recoveryStart)
			}
			return merged, rep, nil
		}
		if recoveryStart.IsZero() {
			recoveryStart = time.Now()
		}
		if ctx.Err() != nil {
			return nil, rep, core.Cancelled(ctx)
		}
		if fenced {
			rep.Fences++
			if rep.Fences > maxFences {
				return nil, rep, fmt.Errorf("mpi: %d membership fences: %w", rep.Fences, core.ErrRetriesExhausted)
			}
			continue // a fence is a request, not a failure: no backoff, no budget
		}
		if !retryable(err) {
			return nil, rep, err
		}
		lastErr = err
		failures++

		if len(lost) > 0 {
			for _, id := range lost {
				ms.evict(id)
				rep.LostShards = append(rep.LostShards, id)
			}
			sort.Slice(rep.LostShards, func(i, j int) bool { return rep.LostShards[i] < rep.LostShards[j] })
			if c.recObs != nil {
				c.recObs.RecoveryStarted(epoch+1, append([]core.ShardId(nil), rep.LostShards...))
			}
		}
		if failures >= policy.MaxAttempts {
			return nil, rep, fmt.Errorf("mpi: %d attempt(s) failed: %w (last: %v)", failures, core.ErrRetriesExhausted, lastErr)
		}
		if err := policy.Sleep(ctx, failures); err != nil {
			return nil, rep, err
		}
	}
}

// runElasticEpoch runs one attempt over the given member set. It returns
// the merged sinks on success; on failure it reports the members declared
// dead under the partition-hardened classification and whether the epoch
// was cut short by a membership fence.
func (c *Controller) runElasticEpoch(
	ctx context.Context, epoch int, tmap core.TaskMap, members []core.ShardId,
	ledgers map[core.ShardId]*core.Ledger, stores map[core.ShardId]*journal.LedgerStore,
	wantSinks map[core.TaskId]int, eo ElasticOptions, policy core.RetryPolicy,
	rep *ElasticReport, joinAt, drainAt time.Time,
) (map[core.TaskId][]core.Payload, []core.ShardId, bool, error) {
	ranks := len(members)
	ectx, ecancel := context.WithCancel(ctx)
	defer ecancel()
	if policy.AttemptTimeout > 0 {
		var tcancel context.CancelFunc
		ectx, tcancel = context.WithTimeout(ectx, policy.AttemptTimeout)
		defer tcancel()
	}

	trs, err := eo.Connect(epoch, ranks)
	if err != nil {
		return nil, nil, false, fmt.Errorf("mpi: epoch %d connect: %w", epoch, err)
	}
	if len(trs) != ranks {
		closeEpoch(trs, false)
		return nil, nil, false, fmt.Errorf("mpi: epoch %d: connect returned %d transports, want %d", epoch, len(trs), ranks)
	}
	// The rebalanced epoch is connected: the membership events it absorbed
	// are now served.
	if !joinAt.IsZero() {
		rep.JoinLatency = time.Since(joinAt)
	}
	if !drainAt.IsZero() {
		rep.DrainLatency = time.Since(drainAt)
	}

	wrapped := make([]fabric.Transport, ranks)
	for l := range trs {
		wrapped[l] = trs[l]
		if eo.Inject != nil {
			wrapped[l] = eo.Inject(epoch, l, trs[l])
		}
	}

	parts, err := partitionInitialClone(tmap, ranks, eo.Initial)
	if err != nil {
		closeEpoch(trs, false)
		return nil, nil, false, err
	}

	// The fence watcher: a membership event arriving mid-epoch freezes the
	// mesh at a journal-consistent point and collapses the epoch. Ordering
	// matters: suspend liveness timers FIRST (a rank stalled in a journal
	// flush must not read as dead), then flush the group-commit journals,
	// then tear the epoch down.
	var fenceFired atomic.Bool
	fenceDone := make(chan struct{})
	go func() {
		defer close(fenceDone)
		select {
		case <-ectx.Done():
		case <-eo.Membership.wait():
			fenceFired.Store(true)
			for _, tr := range trs {
				if fr, ok := tr.(Fencer); ok {
					fr.Fence(true)
				}
			}
			for _, st := range stores {
				st.Sync()
			}
			ecancel()
			for _, tr := range trs {
				tr.Cancel()
			}
		}
	}()

	preReplay, preExec := sumLedgerMap(ledgers)
	results := make([]map[core.TaskId][]core.Payload, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for l := 0; l < ranks; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			results[l], errs[l] = c.RunRank(ectx, l, wrapped[l], parts[l], tmap, ledgers[members[l]])
		}(l)
	}
	wg.Wait()
	ecancel()
	<-fenceDone

	postReplay, postExec := sumLedgerMap(ledgers)
	rep.TotalExecuted = postExec

	if fenceFired.Load() {
		releaseResults(mergeResults(results))
		closeEpoch(trs, false)
		return nil, nil, true, errFenced
	}

	lost := classifyDead(wrapped, errs, members)

	var firstErr, nonRetryable error
	lostSet := make(map[core.ShardId]bool, len(lost))
	for _, id := range lost {
		lostSet[id] = true
	}
	for l, e := range errs {
		if e == nil {
			continue
		}
		if firstErr == nil {
			firstErr = e
		}
		if !lostSet[members[l]] && !retryable(e) {
			nonRetryable = e
		}
	}
	merged := mergeResults(results)
	if firstErr == nil && len(lost) == 0 && sinksComplete(wantSinks, merged) {
		rep.Replayed = postReplay - preReplay
		rep.Executed = postExec - preExec
		closeEpoch(trs, true)
		return merged, nil, false, nil
	}
	releaseResults(merged)
	closeEpoch(trs, false)
	if nonRetryable != nil {
		return nil, lost, false, nonRetryable
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("mpi: epoch %d: incomplete sink coverage: %w", epoch, fabric.ErrPeerLost)
	}
	return nil, lost, false, firstErr
}

// classifyDead is the partition-hardened loss classification. The naive
// rule — any reported rank that also errored is dead — evicts the victim of
// an asymmetric partition: the rank that times out on a silent link fails,
// cancels, and its closing connections make every peer report it. Here a
// rank is declared dead only when
//
//   - it reported ITSELF lost (the injection harness's authoritative
//     self-report for a killed rank), or
//   - it was reported by a peer, errored, and reported no loss of its own:
//     a rank that itself reported a peer loss was alive to observe it —
//     partitioned, not dead — and is retried in place, while a truly dead
//     process reports nothing. Additionally the report must be corroborated
//     through logical rank 0 (the coordinator's heartbeat anchor): either
//     rank 0 is among the reporters, or the suspect IS rank 0 and a
//     majority of the other ranks reported it.
//
// The result: a flapping or one-way link costs one retry epoch with the
// membership intact; only silent, failed, corroborated ranks are evicted.
func classifyDead(wrapped []fabric.Transport, errs []error, members []core.ShardId) []core.ShardId {
	ranks := len(wrapped)
	dead := make(map[int]bool)
	reportedBy := make(map[int]map[int]bool) // suspect -> reporters
	spoke := make(map[int]bool)              // ranks that reported any loss
	for l := range wrapped {
		lr, ok := wrapped[l].(fabric.LossReporter)
		if !ok {
			continue
		}
		for _, lp := range lr.LostPeers() {
			if lp < 0 || lp >= ranks {
				continue
			}
			if lp == l {
				dead[lp] = true
				continue
			}
			spoke[l] = true
			if reportedBy[lp] == nil {
				reportedBy[lp] = make(map[int]bool)
			}
			reportedBy[lp][l] = true
		}
	}
	for lp, reporters := range reportedBy {
		if dead[lp] || spoke[lp] || errs[lp] == nil {
			continue
		}
		corroborated := reporters[0]
		if lp == 0 {
			// Rank 0 cannot vouch for itself: require a majority of the
			// other ranks.
			corroborated = len(reporters) >= (ranks-1)/2+1
		}
		if corroborated {
			dead[lp] = true
		}
	}
	var lost []core.ShardId
	for l := range dead {
		lost = append(lost, members[l])
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	return lost
}

func sumLedgerMap(ledgers map[core.ShardId]*core.Ledger) (replayed, executed int) {
	for _, l := range ledgers {
		replayed += l.Replays()
		executed += l.Executions()
	}
	return replayed, executed
}

// retryable classifies an epoch failure: transport-level losses, closed
// mailboxes and attempt timeouts warrant another epoch; anything else (a
// callback error on a healthy rank) is a real dataflow failure.
func retryable(err error) bool {
	return errors.Is(err, fabric.ErrPeerLost) ||
		errors.Is(err, fabric.ErrClosed) ||
		errors.Is(err, core.ErrCancelled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// closeEpoch tears an epoch's transports down: gracefully (Shutdown, so
// goodbye frames flow and sockets drain) after a successful epoch, abruptly
// (Kill/Cancel) after a failed one.
func closeEpoch(trs []fabric.Transport, graceful bool) {
	var wg sync.WaitGroup
	for _, tr := range trs {
		if tr == nil {
			continue
		}
		wg.Add(1)
		go func(tr fabric.Transport) {
			defer wg.Done()
			if graceful {
				if s, ok := tr.(interface{ Shutdown(time.Duration) error }); ok {
					s.Shutdown(5 * time.Second)
					return
				}
			}
			if k, ok := tr.(interface{ Kill() }); ok {
				k.Kill()
				return
			}
			tr.Cancel()
		}(tr)
	}
	wg.Wait()
}

// partitionInitialClone splits the global external inputs by the epoch's
// task map, cloning every payload so one epoch's consumption (tasks own
// their inputs) cannot corrupt the next attempt's.
func partitionInitialClone(tmap core.TaskMap, ranks int, initial map[core.TaskId][]core.Payload) ([]map[core.TaskId][]core.Payload, error) {
	parts := make([]map[core.TaskId][]core.Payload, ranks)
	for id, ps := range initial {
		r := int(tmap.Shard(id))
		if r < 0 || r >= ranks {
			return nil, fmt.Errorf("mpi: task %d mapped to shard %d of %d", id, r, ranks)
		}
		if parts[r] == nil {
			parts[r] = make(map[core.TaskId][]core.Payload)
		}
		for _, p := range ps {
			cp, err := p.CloneForWire()
			if err != nil {
				return nil, fmt.Errorf("mpi: fault-tolerant runs need serializable external inputs: task %d: %w", id, err)
			}
			parts[r][id] = append(parts[r][id], cp)
		}
	}
	return parts, nil
}

// expectedSinks returns, per root task, how many sink payloads a complete
// run must produce — the coordinator's completeness check (a killed rank
// can exit without error but with its sinks missing).
func expectedSinks(g core.TaskGraph) map[core.TaskId]int {
	want := make(map[core.TaskId]int)
	for _, id := range g.TaskIds() {
		t, _ := g.Task(id)
		n := 0
		for _, consumers := range t.Outgoing {
			if len(consumers) == 0 {
				n++
			}
		}
		if n > 0 {
			want[id] = n
		}
	}
	return want
}

func sinksComplete(want map[core.TaskId]int, got map[core.TaskId][]core.Payload) bool {
	if len(got) != len(want) {
		return false
	}
	for id, n := range want {
		if len(got[id]) != n {
			return false
		}
	}
	return true
}

func mergeResults(per []map[core.TaskId][]core.Payload) map[core.TaskId][]core.Payload {
	merged := make(map[core.TaskId][]core.Payload)
	for _, m := range per {
		for id, ps := range m {
			merged[id] = append(merged[id], ps...)
		}
	}
	return merged
}

func releaseResults(m map[core.TaskId][]core.Payload) {
	for _, ps := range m {
		for _, p := range ps {
			p.Release()
		}
	}
}

// OpenMemberLedger opens the journal-backed lineage ledger of a stable
// member identity under the controller's journal directory (WithJournal),
// restoring whatever records a previous process left there. The caller owns
// the returned store: Sync it at a fence, Close it on drain or exit. An
// elastic worker also uses this to adopt lineage from a RETIRED member's
// journal — safe only once that member reported its drain, because the
// store admits a single writer.
func (c *Controller) OpenMemberLedger(member int) (*core.Ledger, *journal.LedgerStore, error) {
	if c.opt.Journal == "" {
		return nil, nil, fmt.Errorf("mpi: OpenMemberLedger requires a journal directory (WithJournal)")
	}
	return c.openLedger(member)
}
