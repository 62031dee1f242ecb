package persist

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ngfix/internal/core"
	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

// faultFS wraps an FS with a byte budget on writes. Once the budget is
// exhausted the filesystem goes "dead": the failing write persists only
// its affordable prefix and every later mutating call fails too,
// modelling a process killed (or a disk yanked) at an arbitrary byte
// offset. Reads keep working — recovery in the tests reopens the
// directory with the real filesystem anyway.
type faultFS struct {
	inner  FS
	budget int
	dead   bool
}

var errInjected = errors.New("injected fault")

func (f *faultFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f *faultFS) Create(name string) (File, error) {
	if f.dead {
		return nil, errInjected
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *faultFS) Open(name string) (io.ReadCloser, error) { return f.inner.Open(name) }

func (f *faultFS) Rename(oldpath, newpath string) error {
	if f.dead {
		return errInjected
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if f.dead {
		return errInjected
	}
	return f.inner.Remove(name)
}

func (f *faultFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

func (f *faultFS) SyncDir(dir string) error {
	if f.dead {
		return errInjected
	}
	return f.inner.SyncDir(dir)
}

type faultFile struct {
	fs    *faultFS
	inner File
}

func (w *faultFile) Write(p []byte) (int, error) {
	if w.fs.dead {
		return 0, errInjected
	}
	if len(p) > w.fs.budget {
		// The crash point: persist only the affordable prefix, then die.
		n, _ := w.inner.Write(p[:w.fs.budget])
		w.fs.budget = 0
		w.fs.dead = true
		return n, errInjected
	}
	w.fs.budget -= len(p)
	return w.inner.Write(p)
}

func (w *faultFile) Sync() error {
	if w.fs.dead {
		return errInjected
	}
	return w.inner.Sync()
}

func (w *faultFile) Close() error {
	if w.fs.dead {
		w.inner.Close()
		return errInjected
	}
	return w.inner.Close()
}

// copyDir clones the flat snapshot directory src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recover reopens dir with the real filesystem and rebuilds the index the
// way cmd/ngfix-server does on startup: newest valid snapshot, then the
// op log replayed over it.
func recoverIndex(t *testing.T, dir string) (*core.Index, int) {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer st.Close()
	g, err := st.Load()
	if err != nil {
		t.Fatalf("recovery load: %v", err)
	}
	ix := core.New(g, core.Options{PreserveEntry: true})
	n, err := st.Replay(func(op Op) error { return applyOpTest(ix, op) })
	if err != nil {
		t.Fatalf("recovery replay: %v", err)
	}
	return ix, n
}

// nonNeighbor returns a vertex w that u has no edge to yet, so a crafted
// OpFixEdges update stays a valid extra edge (fix batches never duplicate
// base edges, and Validate enforces that).
func nonNeighbor(t *testing.T, g *graph.Graph, u uint32) uint32 {
	t.Helper()
	for w := 0; w < g.Len(); w++ {
		ww := uint32(w)
		if ww != u && !g.HasEdge(u, ww) {
			return ww
		}
	}
	t.Fatalf("vertex %d is connected to everything", u)
	return 0
}

func applyOpTest(ix *core.Index, op Op) error {
	switch op.Kind {
	case OpInsert:
		ix.Insert(op.Vector)
		return nil
	case OpDelete:
		ix.Delete(op.ID)
		return nil
	case OpFixEdges:
		return ix.ApplyExtraUpdates(op.Updates)
	}
	return errors.New("unknown op kind")
}

// TestSnapshotKilledAtEveryByteOffset kills snapshot writes at every byte
// offset of the snapshot file (and then at the rename and directory-sync
// steps). A failed snapshot must leave the previous generation — snapshot
// plus its already-acknowledged log records — as the recovery point.
func TestSnapshotKilledAtEveryByteOffset(t *testing.T) {
	g0 := testGraph(t, 30)

	// Template directory: generation 1 with three acknowledged ops.
	tpl := t.TempDir()
	st, err := Open(tpl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(g0); err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{Kind: OpInsert, Vector: []float32{0.5, 0.4, 0.3, 0.2, 0.1, 0.9}},
		{Kind: OpDelete, ID: 4},
		{Kind: OpFixEdges, Updates: []graph.ExtraUpdate{
			{U: 1, Edges: []graph.ExtraEdge{{To: nonNeighbor(t, g0, 1), EH: 5}}},
		}},
	}
	for _, op := range ops {
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// The acknowledged state every recovery must reproduce.
	want := core.New(g0.Clone(), core.Options{PreserveEntry: true})
	for _, op := range ops {
		if err := applyOpTest(want, op); err != nil {
			t.Fatal(err)
		}
	}

	// How many bytes a full snapshot of the post-op graph writes.
	full := len(snapshotBytes(t, want.G))

	// Probing every offset of a multi-KB file reruns recovery thousands
	// of times; sampling offsets (always including the header, the
	// boundaries, and a spread of payload positions) keeps the test fast
	// while still covering every write call in the snapshot path.
	offsets := []int{0, 1, snapHeaderLen - 1, snapHeaderLen, snapHeaderLen + 1, full - 1, full}
	step := full / 37
	if step < 1 {
		step = 1
	}
	for k := 0; k < full; k += step {
		offsets = append(offsets, k)
	}
	if testing.Short() {
		offsets = offsets[:7]
	}

	for _, k := range offsets {
		dir := filepath.Join(t.TempDir(), "crash")
		copyDir(t, tpl, dir)

		ffs := &faultFS{inner: osFS{}, budget: k}
		crashed, err := Open(dir, Options{FS: ffs})
		if err != nil {
			t.Fatalf("offset %d: open: %v", k, err)
		}
		err = crashed.Snapshot(want.G)
		if k < full && err == nil {
			t.Fatalf("offset %d: snapshot succeeded with only %d/%d bytes writable", k, k, full)
		}
		// k == full: the bytes fit but Sync (and everything after) still
		// works since the budget was never exceeded — so treat success
		// and failure both as valid; recovery must be consistent either
		// way.

		got, replayed := recoverIndex(t, dir)
		if err := got.G.Validate(); err != nil {
			t.Fatalf("offset %d: recovered graph invalid: %v", k, err)
		}
		if err == nil {
			// Snapshot survived: state is baked in, log is empty.
			if replayed != 0 {
				t.Fatalf("offset %d: %d ops replayed over a fresh snapshot", k, replayed)
			}
		} else if replayed != len(ops) {
			t.Fatalf("offset %d: replayed %d ops, want %d", k, replayed, len(ops))
		}
		graphsEqual(t, want.G, got.G)
	}
}

func snapshotBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := writeSnapshotFile(osFS{}, filepath.Join(dir, "s"), g, false); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "s"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOpLogTruncatedAtEveryByteOffset truncates the op log at every byte
// offset and asserts recovery replays exactly the fully-framed prefix of
// ops and always yields a valid graph: a torn tail silently shortens
// history, never corrupts it.
func TestOpLogTruncatedAtEveryByteOffset(t *testing.T) {
	g0 := testGraph(t, 30)
	tpl := t.TempDir()
	st, err := Open(tpl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(g0); err != nil {
		t.Fatal(err)
	}

	a := nonNeighbor(t, g0, 3)
	b := nonNeighbor(t, g0, 3)
	for b == a || b == 3 || g0.HasEdge(3, b) {
		b++
	}
	ops := []Op{
		{Kind: OpInsert, Vector: []float32{1, 0, 0, 0, 0, 1}},
		{Kind: OpDelete, ID: 2},
		{Kind: OpInsert, Vector: []float32{0, 1, 0, 1, 0, 0}},
		{Kind: OpFixEdges, Updates: []graph.ExtraUpdate{
			{U: 3, Edges: []graph.ExtraEdge{{To: a, EH: 2}, {To: b, EH: graph.InfEH}}},
		}},
		{Kind: OpDelete, ID: 7},
	}
	logPath := st.logPath(1)
	bounds := []int{0} // bounds[i] = log size once i ops are fully framed
	for _, op := range ops {
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, int(fi.Size()))
	}
	st.Close()

	// Expected recovered state after each fully-contained prefix of ops.
	wants := make([]*core.Index, len(ops)+1)
	wants[0] = core.New(g0.Clone(), core.Options{PreserveEntry: true})
	for i, op := range ops {
		w := core.New(wants[i].G.Clone(), core.Options{PreserveEntry: true})
		if err := applyOpTest(w, op); err != nil {
			t.Fatal(err)
		}
		wants[i+1] = w
	}

	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(logBytes); cut++ {
		dir := filepath.Join(t.TempDir(), "crash")
		copyDir(t, tpl, dir)
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(logPath)), logBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		contained := 0
		for contained < len(ops) && bounds[contained+1] <= cut {
			contained++
		}
		got, replayed := recoverIndex(t, dir)
		if replayed != contained {
			t.Fatalf("cut %d: replayed %d ops, want %d", cut, replayed, contained)
		}
		if err := got.G.Validate(); err != nil {
			t.Fatalf("cut %d: recovered graph invalid: %v", cut, err)
		}
		want := wants[contained]
		if got.G.Len() != want.G.Len() || got.G.Live() != want.G.Live() {
			t.Fatalf("cut %d: recovered %d/%d vectors, want %d/%d",
				cut, got.G.Len(), got.G.Live(), want.G.Len(), want.G.Live())
		}
		graphsEqual(t, want.G, got.G)
	}
}

// TestFixerCrashRecoveryEquality drives a real OnlineFixer with the store
// as its WAL — searches, fix batches, inserts, deletes — then "crashes"
// (drops the store without a final snapshot) and recovers. Because insert
// replay is deterministic and fix replay is physical, the recovered graph
// must equal the live one byte for byte.
func TestFixerCrashRecoveryEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dim := 6
	m := vec.NewMatrix(120, dim)
	for i := range m.Data() {
		m.Data()[i] = rng.Float32()
	}
	g := hnsw.Build(m, hnsw.Config{M: 6, EFConstruction: 40, Metric: vec.L2, Seed: 3}).Bottom()
	ix := core.New(g, core.Options{LEx: 16})

	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(ix.G); err != nil {
		t.Fatal(err)
	}

	fixer := core.NewOnlineFixer(ix, core.OnlineConfig{
		BatchSize: 10, PrepEF: 60, WAL: st,
	})
	q := make([]float32, dim)
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			for j := range q {
				q[j] = rng.Float32()
			}
			fixer.Search(q, 5, 20)
		}
		if rep, err := fixer.FixPending(0); err != nil {
			t.Fatal(err)
		} else if rep.Queries == 0 {
			t.Fatal("fix batch processed no queries")
		}
		for j := range q {
			q[j] = rng.Float32()
		}
		fixer.Insert(append([]float32(nil), q...))
		fixer.Delete(uint32(rng.Intn(g.Len())))
	}
	if s := fixer.OnlineStats(); s.WALErrors != 0 {
		t.Fatalf("WAL errors during healthy run: %d (%s)", s.WALErrors, s.LastWALError)
	}
	// Crash: no final snapshot, no Close.

	got, replayed := recoverIndex(t, dir)
	if replayed == 0 {
		t.Fatal("crash recovery replayed no ops")
	}
	if err := got.G.Validate(); err != nil {
		t.Fatalf("recovered graph invalid: %v", err)
	}
	graphsEqual(t, ix.G, got.G)
}

// TestFixerDegradesWhenWALDies exercises graceful degradation: when the
// disk dies mid-serving, the fixer keeps answering queries and accepting
// mutations, surfaces the failure in its stats, and recovery restores the
// last acknowledged state rather than failing.
func TestFixerDegradesWhenWALDies(t *testing.T) {
	g0 := testGraph(t, 40)
	dir := t.TempDir()

	ffs := &faultFS{inner: osFS{}, budget: 1 << 20}
	st, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ix := core.New(g0.Clone(), core.Options{LEx: 16})
	if err := st.Snapshot(ix.G); err != nil {
		t.Fatal(err)
	}
	fixer := core.NewOnlineFixer(ix, core.OnlineConfig{BatchSize: 8, PrepEF: 40, WAL: st})

	v := []float32{1, 2, 3, 4, 5, 6}
	fixer.Insert(v)
	liveLen := ix.G.Len()

	ffs.dead = true // disk yanked
	id, _ := fixer.Insert([]float32{6, 5, 4, 3, 2, 1})
	if int(id) != liveLen {
		t.Fatalf("insert refused after WAL death: id %d", id)
	}
	if changed, _ := fixer.Delete(3); !changed {
		t.Fatal("delete refused after WAL death")
	}
	if res, _ := fixer.Search(v, 3, 16); len(res) == 0 {
		t.Fatal("search stopped working after WAL death")
	}
	s := fixer.OnlineStats()
	if s.WALErrors == 0 || s.LastWALError == "" {
		t.Fatalf("WAL death not surfaced in stats: %+v", s)
	}
	if err := fixer.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded on a dead disk")
	}

	// Recovery sees the acknowledged prefix: the first insert, not the
	// post-death mutations.
	got, replayed := recoverIndex(t, dir)
	if replayed != 1 {
		t.Fatalf("replayed %d ops, want 1 (the acknowledged insert)", replayed)
	}
	if got.G.Len() != liveLen {
		t.Fatalf("recovered %d vectors, want %d", got.G.Len(), liveLen)
	}
	if got.G.IsDeleted(3) {
		t.Fatal("unacknowledged delete survived the crash")
	}
	if err := got.G.Validate(); err != nil {
		t.Fatalf("recovered graph invalid: %v", err)
	}
	if !strings.HasSuffix(st.logPath(1), ".wal") {
		t.Fatal("unexpected log naming") // keeps logPath used; sanity only
	}
}
