package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/faultinject"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// mesh-recover: a closed loop of binary-swap-16 runs over 4 in-process
// ranks, each run through Controller.RunElastic over a Membership that
// never changes, with a fresh wire.Mesh (TierAuto) per epoch and a
// group-commit journal. Clean runs alternate with kill runs, in which rank 1
// dies after its 3rd inter-rank send and the survivors replay its lineage.
// Clean runs are dominated by wire, serialize and journal appends; kill runs
// by ledger replay and the epoch loop.
const (
	meshRanks     = 4
	meshLeaves    = 16
	meshBlobBytes = 16 << 10
	meshKillRank  = 1
	meshKillAfter = 3
	// meshSetups is how many warm-up pairs (one clean, one kill run) make
	// up set-up; their median is setup_s.
	meshSetups = 9
	// meshMaxPairs caps the measured clean/kill pairs of one pass.
	meshMaxPairs = 1024
)

// payloadStats counts blob serializations on traced passes.
type payloadStats struct {
	calls, bytes, ns atomic.Int64
}

// blob is the benchmark's own core.Serializable payload: an opaque 16 KiB
// block that serializes to exactly its bytes.
type blob struct {
	data []byte
	st   *payloadStats
}

func (b *blob) Serialize() []byte {
	var start time.Time
	if b.st != nil {
		start = time.Now()
	}
	out := make([]byte, len(b.data))
	copy(out, b.data)
	if b.st != nil {
		b.st.calls.Add(1)
		b.st.bytes.Add(int64(len(out)))
		b.st.ns.Add(int64(time.Since(start)))
	}
	return out
}

// newBlob fills a blob deterministically from a 64-bit seed (splitmix64).
func newBlob(seed uint64, st *payloadStats) *blob {
	b := &blob{data: make([]byte, meshBlobBytes), st: st}
	for off := 0; off < len(b.data); off += 8 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(b.data[off:], z^(z>>31))
	}
	return b
}

// blobBytes reads a payload's bytes whether it arrived as the object
// (same-rank hand-off) or as its wire form, without serializing.
func blobBytes(p core.Payload) ([]byte, error) {
	if p.Data != nil {
		return p.Data, nil
	}
	if b, ok := p.Object.(*blob); ok {
		return b.data, nil
	}
	return nil, fmt.Errorf("unexpected payload %T", p.Object)
}

// meshCallback hashes the task id and every input into a digest and
// expands it into one fresh blob per output slot, so any routing, replay or
// corruption defect changes the sinks.
func meshCallback(g core.TaskGraph, st *payloadStats) core.Callback {
	return func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		h := sha256.New()
		var idb [8]byte
		binary.LittleEndian.PutUint64(idb[:], uint64(id))
		h.Write(idb[:])
		for _, p := range in {
			b, err := blobBytes(p)
			if err != nil {
				return nil, err
			}
			h.Write(b)
		}
		seed := binary.LittleEndian.Uint64(h.Sum(nil))
		t, _ := g.Task(id)
		out := make([]core.Payload, len(t.Outgoing))
		for s := range out {
			out[s] = core.Object(newBlob(seed+uint64(s)<<32, st))
		}
		return out, nil
	}
}

// meshInputs builds one seeded blob per external input slot.
func meshInputs(g core.TaskGraph, seed uint64, st *payloadStats) map[core.TaskId][]core.Payload {
	initial := make(map[core.TaskId][]core.Payload)
	for _, id := range g.TaskIds() {
		t, _ := g.Task(id)
		for j, in := range t.Incoming {
			if in == core.ExternalInput {
				initial[id] = append(initial[id], core.Object(newBlob(seed*1_000_003+uint64(id)*64+uint64(j), st)))
			}
		}
	}
	return initial
}

// meshDigest hashes the sinks in task order.
func meshDigest(out map[core.TaskId][]core.Payload) (string, error) {
	ids := make([]core.TaskId, 0, len(out))
	for id := range out {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	var scratch [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(scratch[:], uint64(id))
		h.Write(scratch[:])
		for _, p := range out[id] {
			b, err := blobBytes(p)
			if err != nil {
				return "", err
			}
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// meshOp is one run's record.
type meshOp struct {
	wallMs   float64
	rep      mpi.ElasticReport
	wire     *wireStats
	ser      *payloadStats
	jbytes   int64
	jsegs    int
	jstoreEr int
}

type meshRun struct {
	g     core.TaskGraph
	seed  uint64
	ref   string
	tasks int
	seq   int
	// tier is the network TierAuto chose between ranks 0 and 1.
	tier string
}

// once executes one run. kill arms the fault plan on the first epoch;
// journal enables the group-commit journal.
func (m *meshRun) once(e env, o *outcome, kill, journal bool) (meshOp, bool) {
	o.attempted++
	m.seq++
	var op meshOp
	if e.rec != nil {
		op.wire, op.ser = &wireStats{}, &payloadStats{}
	}
	initial := meshInputs(m.g, m.seed, op.ser)
	opts := []mpi.Option{mpi.WithRetry(core.RetryPolicy{MaxAttempts: meshRanks, BaseBackoff: time.Millisecond})}
	jdir := ""
	if journal {
		jdir = filepath.Join(e.dir, fmt.Sprintf("journal-%d", m.seq))
		opts = append(opts, mpi.WithJournal(jdir), mpi.WithJournalGroupCommit(2*time.Millisecond, 64))
		defer os.RemoveAll(jdir)
	}
	name := "mesh.clean"
	switch {
	case kill:
		name = "mesh.kill"
	case !journal:
		name = "mesh.nojournal"
	}
	root := e.rec.id()

	start := time.Now()
	ctrl := mpi.New(opts...)
	err := ctrl.Initialize(m.g, core.NewGraphMap(meshRanks, m.g))
	cb := meshCallback(m.g, op.ser)
	reg := timingRegistrar{CallbackRegistrar: ctrl, rec: e.rec, name: "cb.mesh", parent: root, op: root}
	for _, cid := range m.g.Callbacks() {
		if err == nil {
			err = reg.RegisterCallback(cid, cb)
		}
	}
	members, merr := mpi.NewMembership(meshRanks)
	if err == nil {
		err = merr
	}
	var out map[core.TaskId][]core.Payload
	if err == nil {
		template := ctrl.WireOptions()
		connect := func(epoch, n int) ([]fabric.Transport, error) {
			opt := template
			opt.Epoch = epoch
			t := time.Now()
			fabs, err := wire.Mesh(n, opt)
			e.rec.add("wire.mesh", 0, root, root, t, time.Now())
			if err != nil {
				return nil, err
			}
			if m.tier == "" {
				m.tier = fabs[0].PeerNetwork(1)
			}
			trs := make([]fabric.Transport, len(fabs))
			for i, f := range fabs {
				trs[i] = f
			}
			return trs, nil
		}
		inject := func(epoch, rank int, tr fabric.Transport) fabric.Transport {
			if e.rec != nil {
				tr = &tracedTransport{Transport: tr, st: op.wire, rec: e.rec, parent: root, op: root}
			}
			if kill && epoch == 1 {
				tr = faultinject.Wrap(tr, rank, faultinject.Plan{KillRank: meshKillRank, KillAfter: meshKillAfter})
			}
			return tr
		}
		out, op.rep, err = ctrl.RunElastic(context.Background(), mpi.ElasticOptions{
			Connect:    connect,
			Inject:     inject,
			Initial:    initial,
			Membership: members,
		})
	}
	end := time.Now()
	op.wallMs = ms(end.Sub(start))
	e.rec.add(name, root, 0, root, start, end)
	if err != nil {
		o.fail("%s run %d: %v", name, m.seq, err)
		return op, false
	}
	d, derr := meshDigest(out)
	releaseAll(out)
	rep := op.rep
	switch {
	case derr != nil || d != m.ref:
		o.fail("%s run %d: sink digest %s (%v), serial reference %s", name, m.seq, d, derr, m.ref)
		return op, false
	case rep.Replayed+rep.Executed != m.tasks:
		o.fail("%s run %d: replayed %d + executed %d != %d tasks", name, m.seq, rep.Replayed, rep.Executed, m.tasks)
		return op, false
	case kill && (rep.Epochs < 2 || len(rep.LostShards) != 1 || rep.LostShards[0] != meshKillRank):
		o.fail("%s run %d: %d epochs, lost %v; want a recovery from losing rank %d", name, m.seq, rep.Epochs, rep.LostShards, meshKillRank)
		return op, false
	case !kill && rep.Epochs != 1:
		o.fail("%s run %d: clean run took %d epochs", name, m.seq, rep.Epochs)
		return op, false
	}
	if journal {
		op.jstoreEr = ctrl.JournalStats().StoreErrors
		if op.jstoreEr != 0 {
			o.fail("%s run %d: %d journal store errors", name, m.seq, op.jstoreEr)
			return op, false
		}
		if e.rec != nil {
			// Each rank journals under its own directory in segment files.
			segs, err := filepath.Glob(filepath.Join(jdir, "*", "*.wal"))
			for _, seg := range segs {
				var info os.FileInfo
				if info, err = os.Stat(seg); err != nil {
					break
				}
				op.jbytes += info.Size()
			}
			if err != nil || len(segs) == 0 {
				o.fail("%s run %d: journal segments under %s: %d found (%v)", name, m.seq, jdir, len(segs), err)
				return op, false
			}
			op.jsegs = len(segs)
		}
	}
	return op, true
}

func runMesh(e env) (*outcome, error) {
	o := &outcome{}
	g, err := graphs.NewBinarySwap(meshLeaves)
	if err != nil {
		return nil, err
	}
	// The serial reference, computed before any timing.
	ser := core.NewSerial()
	if err := ser.Initialize(g, nil); err != nil {
		return nil, err
	}
	cb := meshCallback(g, nil)
	for _, cid := range g.Callbacks() {
		if err := ser.RegisterCallback(cid, cb); err != nil {
			return nil, err
		}
	}
	refOut, err := ser.Run(meshInputs(g, e.seed, nil))
	if err != nil {
		return nil, err
	}
	ref, err := meshDigest(refOut)
	if err != nil {
		return nil, err
	}
	m := &meshRun{g: g, seed: e.seed, ref: ref, tasks: g.Size()}

	warm := e
	warm.rec = nil
	var setups []float64
	for i := 0; i < meshSetups; i++ {
		start := time.Now()
		m.once(warm, o, false, true)
		m.once(warm, o, true, true)
		setups = append(setups, time.Since(start).Seconds())
	}

	// Fixed-capacity records keep the benchmark's own share of heap_mb the
	// same however many runs fit in the time.
	clean := make([]meshOp, 0, meshMaxPairs)
	kills := make([]meshOp, 0, meshMaxPairs)
	plain := make([]meshOp, 0, meshMaxPairs)
	start := time.Now()
	for len(kills) < 3 || (!timeUp(start, e.seconds) && len(clean) < meshMaxPairs && len(kills) < meshMaxPairs) {
		if op, ok := m.once(e, o, false, true); ok {
			clean = append(clean, op)
		}
		if op, ok := m.once(e, o, true, true); ok {
			kills = append(kills, op)
		}
		if e.rec != nil {
			// Traced passes pair every clean run with one without the
			// journal, for the journal's overhead.
			if op, ok := m.once(e, o, false, false); ok {
				plain = append(plain, op)
			}
		}
		if o.failed > 0 && len(kills) == 0 && len(clean) == 0 {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	heap := heapMB()

	wall := func(ops []meshOp) []float64 {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = op.wallMs
		}
		return xs
	}
	cw, kw := wall(clean), wall(kills)
	o.headlineMs = median(cw)
	o.e2e = map[string]metric{
		"setup_s":    {median(setups), "s"},
		"heap_mb":    {heap, "MB"},
		"p50_ms":     {median(cw), "ms"},
		"alt_p50_ms": {median(kw), "ms"},
		"ops_per_s":  {float64(len(clean)+len(kills)+len(plain)) / elapsed, "1/s"},
	}
	o.report = []named{
		{"setup_s", median(setups), "s", len(setups)},
		{"heap_mb", heap, "MB", 1},
		{"run_ms", median(cw), "ms", len(cw)},
		{"run_p90_ms", quantile(cw, 0.9), "ms", len(cw)},
		{"recover_ms", median(kw), "ms", len(kw)},
		{"recover_p90_ms", quantile(kw, 0.9), "ms", len(kw)},
	}
	fmt.Printf("mesh-recover: wire tier between ranks 0 and 1: %s\n", m.tier)
	if e.rec == nil {
		return o, nil
	}

	per := func(ops []meshOp, f func(meshOp) float64) float64 {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = f(op)
		}
		return median(xs)
	}
	var sendUs []float64
	storeErrs := 0
	for _, op := range append(append([]meshOp(nil), clean...), kills...) {
		sendUs = append(sendUs, op.wire.sendUs...)
		storeErrs += op.jstoreEr
	}
	var overhead []float64
	for i := 0; i < min(len(clean), len(plain)); i++ {
		overhead = append(overhead, clean[i].wallMs-plain[i].wallMs)
	}
	o.spans = e.rec.all()
	ix := indexSpans(o.spans)
	o.layer = map[string]metric{
		"payload.serialize_calls": {per(clean, func(op meshOp) float64 { return float64(op.ser.calls.Load()) }), "count"},
		"payload.serialize_bytes": {per(clean, func(op meshOp) float64 { return float64(op.ser.bytes.Load()) }), "B"},
		"payload.serialize_us":    {per(clean, func(op meshOp) float64 { return float64(op.ser.ns.Load()) / 1e3 }), "us"},
		"wire.mesh_ms":            {median(ix.durationsMs("wire.mesh")), "ms"},
		"wire.send_calls":         {per(clean, func(op meshOp) float64 { return float64(op.wire.calls) }), "count"},
		"wire.send_msgs":          {per(clean, func(op meshOp) float64 { return float64(op.wire.msgs) }), "count"},
		"wire.send_bytes":         {per(clean, func(op meshOp) float64 { return float64(op.wire.bytes) }), "B"},
		"wire.send_us.p50":        {median(sendUs), "us"},
		"wire.recv_wait_ms":       {per(clean, func(op meshOp) float64 { return ms(op.wire.recvWait) }), "ms"},
		"journal.bytes":           {per(clean, func(op meshOp) float64 { return float64(op.jbytes) }), "B"},
		"journal.segments":        {per(clean, func(op meshOp) float64 { return float64(op.jsegs) }), "count"},
		"journal.store_errors":    {float64(storeErrs), "count"},
		"journal.overhead_ms":     {median(overhead), "ms"},
		"recover.recovery_ms":     {per(kills, func(op meshOp) float64 { return ms(op.rep.RecoveryTime) }), "ms"},
		"recover.epochs":          {per(kills, func(op meshOp) float64 { return float64(op.rep.Epochs) }), "count"},
		"recover.replayed":        {per(kills, func(op meshOp) float64 { return float64(op.rep.Replayed) }), "count"},
		"recover.total_executed":  {per(kills, func(op meshOp) float64 { return float64(op.rep.TotalExecuted) }), "count"},
		"recover.useful_ratio":    {per(kills, func(op meshOp) float64 { return float64(m.tasks) / float64(op.rep.TotalExecuted) }), "ratio"},
		"cb.calls":                {float64(len(ix.byName["cb.mesh"])) / float64(len(clean)+len(kills)+len(plain)), "count"},
	}
	return o, nil
}
