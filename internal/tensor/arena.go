package tensor

import "sync"

// elem is the element types the kernels compute in: float32 for the
// float32 backend; int8 codes, int16 widened A panels and int32
// accumulators for the int8 backend. Scratch arenas exist for all but
// int16: the A panels are packed once, at quantization (PanelsI8).
type elem interface {
	float32 | int8 | int16 | int32
}

// arena is a bump-allocated scratch buffer reused across kernel calls via
// its element type's sync.Pool. Kernels take() slices for quantized
// inputs, im2col columns, GEMM pack panels and accumulator tiles instead
// of calling make, which removes the dominant allocation churn from
// campaign trials (every conv layer used to allocate a fresh col buffer
// per forward).
//
// Ownership rules (documented in DESIGN.md §10):
//
//   - a scratch holds an invocation's arenas, at most one per element
//     type: arenaOf fetches one from its pool on first use and
//     scratch.release returns them; it brackets one kernel invocation on
//     one goroutine, and arenas are never shared between goroutines.
//   - take returns UNINITIALIZED memory; the caller must fully overwrite
//     every element it reads (quantize, im2col, the packers and the GEMM
//     do).
//   - taken slices are dead once the scratch is released or the arena is
//     restored past their mark; nothing may retain them.
//   - every reserve precedes the first take, so nested takes (conv column
//     buffer, accumulators, GEMM pack panels) never reallocate
//     mid-kernel.
type arena[T elem] struct {
	buf  []T
	off  int
	want int // elements reserved since the arena left its pool
	gen  int // bumped when buf is reallocated; guards restore()
}

// reserve adds n elements to what the arena must serve without growing;
// the next take sizes the backing buffer for the total. Several users of
// one arena (the float32 conv's columns and both of its GEMM's pack
// panels) each reserve their share. Every reserve precedes the first
// take, so one allocation at most covers them all and nested takes never
// reallocate mid-kernel.
func (a *arena[T]) reserve(n int) { a.want += n }

// take returns an uninitialized scratch slice of length n. A buffer
// smaller than the reservation, or exhausted, is replaced by one that
// fits; previously taken slices stay valid (they alias the old array)
// but restore() to marks taken before the growth becomes a no-op.
func (a *arena[T]) take(n int) []T {
	if size := max(a.want, a.off+n); len(a.buf) < size {
		a.buf = make([]T, size)
		a.off = 0
		a.gen++
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// arenaMark is a position in an arena to roll back to with restore.
type arenaMark struct{ off, gen int }

// mark records the current allocation point.
func (a *arena[T]) mark() arenaMark { return arenaMark{off: a.off, gen: a.gen} }

// restore rolls the arena back to m, freeing everything taken since. If
// the buffer grew after the mark the rollback is skipped: the marked
// offset refers to the discarded array, and rolling it back onto the
// fresh one would hand out memory still referenced through slices of the
// old. The arena stays correct, merely larger.
func (a *arena[T]) restore(m arenaMark) {
	if a.gen == m.gen {
		a.off = m.off
	}
}

// arenaPools holds one pool per element type, indexed by elemIndex. The
// backing buffers stay with a pooled arena, so steady-state kernels
// allocate nothing.
var arenaPools = [...]sync.Pool{
	{New: func() any { return new(arena[float32]) }},
	{New: func() any { return new(arena[int8]) }},
	{New: func() any { return new(arena[int32]) }},
}

// elemIndex is T's slot in arenaPools and in a scratch; int16 has none.
func elemIndex[T elem]() int {
	switch any(T(0)).(type) {
	case float32:
		return 0
	case int8:
		return 1
	}
	return 2
}

// scratch is the arenas one kernel invocation draws from, one per element
// type it uses. The zero value is empty; release returns what it holds.
type scratch [len(arenaPools)]any

// arenaOf returns sc's arena for T, fetching an empty one from T's pool
// on first use.
func arenaOf[T elem](sc *scratch) *arena[T] {
	i := elemIndex[T]()
	if sc[i] == nil {
		a := arenaPools[i].Get().(*arena[T])
		a.off, a.want = 0, 0
		sc[i] = a
	}
	return sc[i].(*arena[T])
}

// release returns sc's arenas to their pools and empties it.
func (sc *scratch) release() {
	for i, a := range sc {
		if a != nil {
			arenaPools[i].Put(a)
			sc[i] = nil
		}
	}
}
