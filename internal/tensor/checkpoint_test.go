package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func ckTensor(n int, base float32) *Tensor {
	t := New(1, n)
	for i := range t.Data() {
		t.Data()[i] = base + float32(i)
	}
	return t
}

func TestCheckpointStorePutGet(t *testing.T) {
	s := NewCheckpointStore(1 << 20)
	src := ckTensor(8, 1)
	stored := s.Put(3, 2, src, 500)
	if stored == src {
		t.Fatal("Put must deep-copy, not alias the source")
	}
	// Mutating the source must not leak into the snapshot.
	src.Data()[0] = -99
	got, cost, ok := s.Get(3, 2)
	if !ok || cost != 500 {
		t.Fatalf("Get = (%v, %d, %v), want hit with cost 500", got, cost, ok)
	}
	if math.Float32bits(got.Data()[0]) != math.Float32bits(float32(1)) {
		t.Fatalf("snapshot[0] = %v, want 1 (deep copy)", got.Data()[0])
	}
	if got.Dim(0) != 1 || got.Dim(1) != 8 {
		t.Fatalf("snapshot shape %v, want [1 8]", got.Shape())
	}
	if _, _, ok := s.Get(3, 5); ok {
		t.Fatal("unknown point must miss")
	}
	if s.Len() != 1 || s.UsedBytes() != 32 {
		t.Fatalf("Len=%d Used=%d, want 1/32", s.Len(), s.UsedBytes())
	}
}

// TestCheckpointStorePutPresentKey: a snapshot is immutable once stored —
// re-putting its key returns the stored tensor and writes nothing, so a
// reader holding it never observes a change.
func TestCheckpointStorePutPresentKey(t *testing.T) {
	s := NewCheckpointStore(1 << 20)
	first := s.Put(1, 1, ckTensor(6, 0), 10)
	second := s.Put(1, 1, ckTensor(6, 100), 20)
	if first != second {
		t.Fatal("Put of a present key must return the stored snapshot")
	}
	got, cost, _ := s.Get(1, 1)
	if got != first || got.Data()[0] != 0 || cost != 10 {
		t.Fatalf("stored snapshot = %v cost %d after re-put, want the first (0, cost 10)", got.Data()[0], cost)
	}
	if s.Len() != 1 || s.UsedBytes() != 24 {
		t.Fatalf("Len=%d Used=%d after re-put, want 1/24", s.Len(), s.UsedBytes())
	}
}

func TestCheckpointStoreLRUEviction(t *testing.T) {
	// Budget fits exactly two 8-float snapshots.
	s := NewCheckpointStore(64)
	s.Put(1, 1, ckTensor(8, 0), 1)
	s.Put(2, 1, ckTensor(8, 0), 2)
	s.Get(1, 1) // touch 1 so 2 becomes the LRU victim
	s.Put(3, 1, ckTensor(8, 0), 3)
	if _, _, ok := s.Get(2, 1); ok {
		t.Fatal("LRU entry (2,1) should have been evicted")
	}
	if _, _, ok := s.Get(1, 1); !ok {
		t.Fatal("recently used entry (1,1) must survive")
	}
	if s.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions())
	}
}

func TestCheckpointStoreOverBudgetPassThrough(t *testing.T) {
	s := NewCheckpointStore(16)
	src := ckTensor(8, 0) // 32 bytes > 16-byte budget
	if got := s.Put(1, 1, src, 1); got != src {
		t.Fatal("over-budget Put must return the source unstored")
	}
	if s.Len() != 0 || s.UsedBytes() != 0 {
		t.Fatal("over-budget Put must store nothing")
	}
	// Non-positive budget: everything passes through.
	empty := NewCheckpointStore(0)
	if got := empty.Put(1, 1, ckTensor(1, 0), 1); empty.Len() != 0 || got == nil {
		t.Fatal("zero-budget store must pass through")
	}
}

// TestCheckpointStoreEvictionKeepsHeldSnapshots: eviction drops the
// store's reference only. A reader that fetched a snapshot before it was
// evicted keeps a valid, unchanged tensor, and the key's replacement gets
// a buffer of its own.
func TestCheckpointStoreEvictionKeepsHeldSnapshots(t *testing.T) {
	s := NewCheckpointStore(32) // one 8-float snapshot at a time
	held := s.Put(1, 1, ckTensor(8, 0), 1)
	next := s.Put(2, 1, ckTensor(8, 50), 2) // evicts (1,1)
	if _, _, ok := s.Get(1, 1); ok {
		t.Fatal("(1,1) must have been evicted")
	}
	if &next.Data()[0] == &held.Data()[0] {
		t.Fatal("an evicted snapshot's buffer was handed to another key while a reader holds it")
	}
	for i, v := range held.Data() {
		if v != float32(i) {
			t.Fatalf("held snapshot[%d] = %v after eviction, want %d", i, v, i)
		}
	}
	if s.Len() != 1 || s.UsedBytes() != 32 || s.Evictions() != 1 {
		t.Fatalf("Len=%d Used=%d Evictions=%d, want 1/32/1", s.Len(), s.UsedBytes(), s.Evictions())
	}
}

// ckShared is the store contract the concurrent test writes under: the
// snapshot of a key is a pure function of the key. Every key gets a
// length of its own, so a store that parked evicted buffers by size
// could never hand one out again.
func ckShared(item, point int) *Tensor {
	return ckTensor(64+(item*9+point)%1024, float32(item*16+point))
}

func ckCheck(t *testing.T, got *Tensor, item, point int, when string) {
	t.Helper()
	want := ckShared(item, point)
	if got.Len() != want.Len() {
		t.Errorf("%s: (%d,%d) has %d elements, want %d", when, item, point, got.Len(), want.Len())
		return
	}
	for i, v := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
			t.Errorf("%s: (%d,%d)[%d] = %v, want %v", when, item, point, i, got.Data()[i], v)
			return
		}
	}
}

// TestCheckpointStoreConcurrent drives one store from several goroutines
// over overlapping and disjoint keys, under a budget that evicts while
// readers still hold snapshots. Held snapshots stay bit-identical, the
// writers of a key all get one snapshot, and the store retains no more
// than its budget — on the heap, not just by its own count.
// run_checks.sh runs it with -race -count=10 -cpu 1,4.
func TestCheckpointStoreConcurrent(t *testing.T) {
	const (
		workers = 8
		ops     = 600
		budget  = 128 << 10
	)
	type held struct {
		t           *Tensor
		item, point int
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	s := NewCheckpointStore(budget)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var ring [16]held
			for i := 0; i < ops; i++ {
				// Two in three operations land on keys every goroutine
				// uses, the rest on this goroutine's own.
				item, point := rng.Intn(24), 1+rng.Intn(8)
				if i%3 == 0 {
					item = 1000*(g+1) + rng.Intn(64)
				}
				snap, _, ok := s.Get(item, point)
				if !ok {
					snap = s.Put(item, point, ckShared(item, point), int64(i))
				}
				ckCheck(t, snap, item, point, "fresh")
				// By now the store has turned over many times since the
				// ring's oldest snapshot was fetched.
				if old := ring[i%len(ring)]; old.t != nil {
					ckCheck(t, old.t, old.item, old.point, "held across evictions")
				}
				ring[i%len(ring)] = held{snap, item, point}
				if used := s.UsedBytes(); used > budget {
					t.Errorf("UsedBytes %d over the %d budget", used, budget)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Evictions() == 0 {
		t.Fatal("the budget never forced an eviction; the test exercised nothing")
	}

	// Retained bytes: everything the goroutines held is unreachable now,
	// so what the heap kept is what the store keeps. The run wrote
	// several MiB through a 128 KiB budget.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	const slack = 256 << 10 // map, list and test bookkeeping
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > budget+slack {
		t.Fatalf("heap grew by %d bytes with the store alive, budget is %d: evicted buffers are being retained", grown, budget)
	}
	runtime.KeepAlive(s)

	// One snapshot per key: writers racing on the same keys, with room
	// for all of them, must all come away with the same tensor.
	roomy := NewCheckpointStore(8 << 20)
	got := make([][]*Tensor, workers)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 64; k++ {
				got[g] = append(got[g], roomy.Put(k, 1, ckShared(k, 1), 1))
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < 64; k++ {
		stored, _, ok := roomy.Get(k, 1)
		if !ok {
			t.Fatalf("key %d missing from a store with room for it", k)
		}
		for g := range got {
			if got[g][k] != stored {
				t.Fatalf("key %d: goroutine %d's Put returned a different snapshot than the store holds", k, g)
			}
		}
	}
	if roomy.Len() != 64 || roomy.Evictions() != 0 {
		t.Fatalf("Len=%d Evictions=%d, want 64/0", roomy.Len(), roomy.Evictions())
	}
}
