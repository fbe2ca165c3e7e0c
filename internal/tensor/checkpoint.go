package tensor

import (
	"container/list"
	"sync"
)

// CheckpointStore holds deep-copied activation snapshots keyed by
// (item, point) — for campaigns, (sample index, chain cut index) — under
// a byte budget. It is the backing store for clean-prefix activation
// reuse: the clean pass checkpoints every boundary activation an injected
// suffix can resume from, and armed trials on the same (item, point) skip
// the prefix entirely.
//
// A CheckpointStore is safe for concurrent use: a campaign builds one and
// every worker's prefix runner reads and writes it. What makes sharing
// sound is the contract on what goes in — the snapshot under a key is a
// pure function of the key (clean activations are the same bit pattern on
// every replica) — and two rules the store keeps itself:
//
//   - a snapshot is immutable once stored. Put of a key that is present
//     returns the stored snapshot and copies nothing, so a reader holding
//     it never sees a write;
//   - eviction (least-recently-used, driven by the byte budget) drops the
//     store's reference and nothing else. A reader still holding an
//     evicted snapshot keeps a valid tensor, and the garbage collector
//     reclaims the buffer with the last reader, so the store never
//     retains more than its budget.
type CheckpointStore struct {
	budget int64

	mu        sync.Mutex
	used      int64
	entries   map[ckKey]*list.Element
	lru       *list.List // front = most recently used
	evictions int64
}

type ckKey struct{ item, point int }

type ckEntry struct {
	key ckKey
	t   *Tensor
	// costNs is the time the snapshotted prefix took to compute; cache
	// hits report it as the time saved by not recomputing.
	costNs int64
}

// NewCheckpointStore returns a store that holds at most budgetBytes of
// snapshot data (4 bytes per float32 element). A non-positive budget
// stores nothing, turning Put into a pass-through.
func NewCheckpointStore(budgetBytes int64) *CheckpointStore {
	return &CheckpointStore{
		budget:  budgetBytes,
		entries: make(map[ckKey]*list.Element),
		lru:     list.New(),
	}
}

// Get returns the snapshot for (item, point), the nanoseconds its
// original computation cost, and whether it was present. A hit marks the
// entry most-recently-used. The returned tensor is shared with every
// other reader of the key: callers may read it and feed it to forward
// passes for as long as they like, but must never mutate it.
func (s *CheckpointStore) Get(item, point int) (*Tensor, int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[ckKey{item, point}]
	if !ok {
		return nil, 0, false
	}
	s.lru.MoveToFront(el)
	e := el.Value.(*ckEntry)
	return e.t, e.costNs, true
}

// Put snapshots src (a deep copy) under (item, point) and returns the
// stored tensor. When the key is already present the stored snapshot is
// returned untouched — by the store's contract it is bitwise equal to
// src. When src does not fit the budget — even after evicting everything
// else — it is returned as-is without being stored, which is always safe
// for the caller's current trial: src stays valid until the model's next
// forward pass.
func (s *CheckpointStore) Put(item, point int, src *Tensor, costNs int64) *Tensor {
	size := int64(src.Len()) * 4
	if size > s.budget {
		return src
	}
	if t, _, ok := s.Get(item, point); ok {
		return t
	}
	// Copy outside the lock: the memmove is the expensive part of a Put
	// and needs no store state.
	snap := src.Clone()

	key := ckKey{item, point}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		// Another writer stored the key while this one copied.
		s.lru.MoveToFront(el)
		return el.Value.(*ckEntry).t
	}
	for s.used+size > s.budget {
		victim := s.lru.Remove(s.lru.Back()).(*ckEntry)
		delete(s.entries, victim.key)
		s.used -= int64(victim.t.Len()) * 4
		s.evictions++
	}
	s.entries[key] = s.lru.PushFront(&ckEntry{key: key, t: snap, costNs: costNs})
	s.used += size
	return snap
}

// Len returns the number of stored snapshots.
func (s *CheckpointStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// UsedBytes returns the bytes currently held by stored snapshots.
func (s *CheckpointStore) UsedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Evictions returns how many snapshots the budget has pushed out.
func (s *CheckpointStore) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}
