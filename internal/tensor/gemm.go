package tensor

// Blocked GEMM. One driver — gemmSerial's loop nest, gemmParallel's
// split — serves both backends (float32 here, int8 in gemm_i8.go, each
// contributing only its packers and kernels), all four matmul variants
// through the operands' leading dimensions and transpose flags, and every
// conv GEMM; a gemmOp says where each operand's rows come from.
//
// Each backend has one micro-kernel family and one macro kernel. The
// micro-kernels read B row p of a 16-column tile at base+offs[p]: packed
// panels keep row p at p·gemmNR and pass the constant table panelOffs,
// B read in place passes its own offsets (the direct conv lowering's
// taps into an image plane, conv_direct.go). Each backend reads A one
// way and never packs it per call: the float32 kernels in place, element
// (r, p) of a tile at a[r·ars + p·aps] (a row-major A has ars = lda and
// aps = 1, a transposed one ars = 1 and aps = lda); the int8 kernels from
// the layer's weight panels, packed once (PanelsI8).
//
// Determinism contract (DESIGN.md §10): for every output element dst[i,j]
// the k-loop is a single left-to-right float32 accumulation chain
//
//	(((init + a_0·b_0) + a_1·b_1) + ... + a_{k-1}·b_{k-1})
//
// with init = 0 (overwrite) or the prior dst value (accumulate). Cache
// blocking only changes *which element* is computed when, never the
// per-element chain: k-chunk boundaries sit at fixed multiples of gemmKC
// and partial sums are stored to / reloaded from dst between chunks
// (float32 load/store is exact). The micro-kernels — AVX2 assembly and
// scalar Go alike — keep one accumulator per element and use separate
// multiply and add (never FMA). Consequently the result is bit-identical
// regardless of worker count, row/column partitioning, tile shape, or
// whether the small-problem loop handled the call — the property the
// campaign engine's (Seed, Trials) reproducibility rests on.

const (
	gemmMR = 4   // micro-kernel rows
	gemmNR = 16  // micro-kernel columns (two AVX2 vectors)
	gemmKC = 256 // k-chunk: packed panels stay L1/L2-resident
	gemmMC = 96  // rows of A packed per macro block
	gemmNC = 512 // columns of B packed per macro block
)

// gemmKernels is one backend's half of the blocked GEMM: its B packer
// and its macro kernel, which owns the micro and edge kernels. In is the
// operand element (and the B panel element: B panels are operand rows),
// Out the accumulator, AP the element the kernels read A in: In itself
// when A is read in place (float32), the panels' int16 otherwise.
// Everything else — the small-problem loop, the jc/pc/ic loop nest, the
// pack-scratch sizing and the parallel split — is the shared driver
// below, which never asks which backend it runs.
type gemmKernels[In, AP, Out elem] struct {
	packB func(bpack []In, b []In, ldb int, transB bool, pc, jc, kb, nb int)
	// macro runs the micro-kernels over one mb×nb block kb deep, writing
	// dst from its start. Row r of the block's A starts at a[r·ars:]; on
	// float32 its element p is p·aps further on, int8 panels (4 rows from
	// each multiple of gemmMR) ignore aps. The B tile of columns jr…
	// starts at b[jr·bstride:], with its row p at offs[p]: packed B panels
	// have bstride roundUp(kb, kStep) and offs panelOffs, B read in place
	// has bstride 1, its own offsets and nb a multiple of gemmNR.
	macro func(dst []Out, ldc int, a []AP, ars, aps int, b []In, bstride int, offs []int32, mb, nb, kb int, first bool)
	// kStep is the multiple panels round a k-block up to: 1 for float32,
	// 2 for the int8 k-pair layout.
	kStep int
}

// f32Kernels is the float32 backend: A is read in place.
var f32Kernels = &gemmKernels[float32, float32, float32]{packB: packB, macro: gemmMacro, kStep: 1}

// gemmOp is one GEMM, dst = A×B (or dst += A×B with acc) for A [m, k],
// B [k, n] and dst rows ldc apart. Each operand has two forms:
//
//   - A[i,p] is a[i*lda+p], or a[p*lda+i] with transA, read in place on
//     float32. int8 reads it from panels packed once over all of k, every
//     panel gemmMR rows high (PanelsI8), so block (ic, pc) sits at
//     ic·roundUp(k, kStep) + pc·gemmMR whatever the blocking or split;
//     a, row-major, is then read only by the small-problem loop.
//   - B[p,j] is b[p*ldb+j], or b[j*ldb+p] with transB, packed per (pc, jc)
//     block; or, with offs set, read in place at b[offs[p]+j]. offs then
//     holds roundUp(k, kStep) ascending offsets, any past k repeating
//     offs[k-1], n is a multiple of gemmNR, and there is one jc block.
type gemmOp[In, AP, Out elem] struct {
	dst     []Out
	ldc     int
	a       []In
	lda     int
	transA  bool
	panels  []AP
	b       []In
	ldb     int
	transB  bool
	offs    []int32
	m, k, n int
	acc     bool
}

// The float32 and int8 instances.
type (
	f32Op = gemmOp[float32, float32, float32]
	i8Op  = gemmOp[int8, int16, int32]
)

// panelOffs is the offset table of a full-width packed B panel: row p
// sits at p·gemmNR on both backends. Its gemmKC entries cover every
// k-chunk's rows, kb ≤ gemmKC on float32 and roundUp(kb, 2) ≤ gemmKC on
// int8 (gemmKC is even).
var panelOffs = func() (t [gemmKC]int32) {
	for p := range t {
		t[p] = int32(p * gemmNR)
	}
	return t
}()

// roundUp rounds n up to a multiple of m.
func roundUp(n, m int) int { return (n + m - 1) / m * m }

// panelLen returns the B panel elements one gemmSerial call of op takes:
// one macro block in whole micro-tiles, none when B is read in place.
func (g *gemmKernels[In, AP, Out]) panelLen(op *gemmOp[In, AP, Out]) int {
	if op.offs != nil {
		return 0
	}
	return roundUp(min(op.n, gemmNC), gemmNR) * roundUp(min(op.k, gemmKC), g.kStep)
}

// gemmReserve adds the B pack panels of one gemmSerial call of op to
// sc's reservations, in In's arena. Only op's shape and B's form are
// read.
func gemmReserve[In, AP, Out elem](g *gemmKernels[In, AP, Out], sc *scratch, op *gemmOp[In, AP, Out]) {
	arenaOf[In](sc).reserve(g.panelLen(op))
}

// gemmSmall computes problems below the blocking thresholds on either
// backend: dot-product order when B is transposed (both operand rows
// stream contiguously), row-streaming ikj order otherwise. Out(v) widens
// an int8 code to int32 and is the identity on float32, where every
// element is the ascending-p chain of the determinism contract — the
// chain of the naive triple loop. Element access: A[i,p] is a[i*lda+p],
// or a[p*lda+i] when transA; B[p,j] is b[p*ldb+j], or b[j*ldb+p] when
// transB.
func gemmSmall[In, Out elem](dst []Out, ldc int, a []In, lda int, transA bool, b []In, ldb int, transB bool, m, k, n int, acc bool) {
	for i := 0; i < m; i++ {
		drow := dst[i*ldc : i*ldc+n]
		if transB {
			for j := range drow {
				brow := b[j*ldb : j*ldb+k]
				var s Out
				if acc {
					s = drow[j]
				}
				if transA {
					for p, bv := range brow {
						s += Out(a[p*lda+i]) * Out(bv)
					}
				} else {
					arow := a[i*lda : i*lda+k]
					for p, av := range arow {
						s += Out(av) * Out(brow[p])
					}
				}
				drow[j] = s
			}
			continue
		}
		// The p-loop outside the j-loop streams B rows; a fixed element
		// still takes its terms in ascending p, one add at a time.
		if !acc {
			clear(drow)
		}
		for p := 0; p < k; p++ {
			var av Out
			if transA {
				av = Out(a[p*lda+i])
			} else {
				av = Out(a[i*lda+p])
			}
			brow := b[p*ldb : p*ldb+n]
			for j, bv := range brow {
				drow[j] += av * Out(bv)
			}
		}
	}
}

// gemmTiny reports whether gemmSerial computes a packed m×k×n problem on
// gemmSmall's scalar loops: tiny or skinny problems, where packing costs
// more than it saves, and outputs narrower than one vector tile would run
// entirely on the scalar edge kernel anyway.
func gemmTiny(m, k, n int) bool { return n < gemmNR || m*n < gemmMR*gemmNR || m*k*n < 8192 }

// gemmSerial computes op on the calling goroutine with g's blocked
// kernels: the jc/pc/ic loop nest, B packed per block or read in place,
// A read in place or from its panels. B's pack panels come from sc
// (restored on return). b may itself live in sc's arena (the conv path's
// column buffer or plane): takes hand out disjoint ranges, so the panels
// never alias it.
func gemmSerial[In, AP, Out elem](g *gemmKernels[In, AP, Out], op *gemmOp[In, AP, Out], sc *scratch) {
	m, k, n, ldc := op.m, op.k, op.n, op.ldc
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !op.acc {
			for i := 0; i < m; i++ {
				clear(op.dst[i*ldc : i*ldc+n])
			}
		}
		return
	}
	nc := gemmNC
	if op.offs != nil {
		// The assembly kernels read B without bounds checks: every row
		// must fit in b, and the offsets ascend, so the last decides.
		if n%gemmNR != 0 || int(op.offs[k-1])+n > len(op.b) {
			panic("tensor: in-place GEMM operand B reads past its end")
		}
		nc = n
	} else if gemmTiny(m, k, n) {
		gemmSmall(op.dst, ldc, op.a, op.lda, op.transA, op.b, op.ldb, op.transB, m, k, n, op.acc)
		return
	}

	// A's block (ic, pc) starts at a[ic·ars + pc·aps]. Read in place
	// (float32, where AP is In), element (i, p) is a[i·ars + p·aps]. From
	// panels (int8, the only form when AP is not In), a k-pair takes
	// 2·gemmMR elements, so an even pc sits at pc·gemmMR; the macro walks
	// the panel layout from there.
	a, inPlace := any(op.a).([]AP)
	ars, aps := op.lda, 1
	if op.transA {
		ars, aps = 1, op.lda
	}
	if op.panels != nil {
		a, ars, aps = op.panels, roundUp(k, g.kStep), gemmMR
	} else if !inPlace {
		panic("tensor: the blocked int8 GEMM reads A from panels packed once, and none were given")
	}
	arB := arenaOf[In](sc)
	markB := arB.mark()
	bpack := arB.take(g.panelLen(op))
	for jc := 0; jc < n; jc += nc {
		nb := min(n-jc, nc)
		for pc := 0; pc < k; pc += gemmKC {
			kb := min(k-pc, gemmKC)
			kbs := roundUp(kb, g.kStep)
			b, bstride, offs := bpack, kbs, panelOffs[:]
			if op.offs != nil {
				b, bstride, offs = op.b, 1, op.offs[pc:pc+kbs]
			} else {
				g.packB(bpack, op.b, op.ldb, op.transB, pc, jc, kb, nb)
			}
			for ic := 0; ic < m; ic += gemmMC {
				mb := min(m-ic, gemmMC)
				g.macro(op.dst[ic*ldc+jc:], ldc, a[ic*ars+pc*aps:], ars, aps, b, bstride, offs, mb, nb, kb, pc == 0 && !op.acc)
			}
		}
	}
	arB.restore(markB)
}

// gemmSplit is how gemmParallel splits an m×k×n output across Workers().
// The split only selects which goroutine computes which output element —
// every element's accumulation chain is fixed by the determinism
// contract — so results are bit-identical for any worker count. Tall
// outputs split by rows; short-and-wide outputs (the conv im2col shape:
// few output channels, many pixels) split by columns so all workers stay
// busy. Chunks of dim (m or n) are whole micro-tiles, so no split adds an
// edge tile. chunk is 0 for small problems, and those a split would leave
// in one chunk: they run on the caller.
func gemmSplit(m, k, n int) (rows bool, dim, chunk int) {
	w := Workers()
	rows = m >= n
	dim, tile := n, gemmNR
	if rows {
		dim, tile = m, gemmMR
	}
	chunk = roundUp((dim+w-1)/w, tile)
	if w <= 1 || m*k*n < 1<<15 || chunk >= dim {
		return rows, dim, 0
	}
	return rows, dim, chunk
}

// gemmParallel is gemmSerial with the output split across Workers() by
// gemmSplit. Each chunk is an op of its own, on its own scratch.
func gemmParallel[In, AP, Out elem](g *gemmKernels[In, AP, Out], op gemmOp[In, AP, Out]) {
	rows, dim, chunk := gemmSplit(op.m, op.k, op.n)
	if chunk == 0 {
		var sc scratch
		gemmReserve(g, &sc, &op)
		gemmSerial(g, &op, &sc)
		sc.release()
		return
	}
	runParallel(dim, chunk, (dim+chunk-1)/chunk, &gemmChunks[In, AP, Out]{g, op, rows})
}

// gemmChunks is gemmParallel's region, one allocation for the split:
// each chunk an op of its own, on its own scratch.
type gemmChunks[In, AP, Out elem] struct {
	g    *gemmKernels[In, AP, Out]
	op   gemmOp[In, AP, Out]
	rows bool
}

func (c *gemmChunks[In, AP, Out]) run(lo, hi int) {
	part := c.op.part(c.rows, lo, hi, c.g.kStep)
	var sc scratch
	gemmReserve(c.g, &sc, &part)
	gemmSerial(c.g, &part, &sc)
	sc.release()
}

// part returns output rows (rows) or columns [lo, hi) of op as an op of
// their own. The receiver is a copy, so no chunk re-slices a shared op.
func (op gemmOp[In, AP, Out]) part(rows bool, lo, hi, kStep int) gemmOp[In, AP, Out] {
	if !rows {
		op.dst = op.dst[lo:]
		if op.transB {
			op.b = op.b[lo*op.ldb:]
		} else {
			op.b = op.b[lo:]
		}
		op.n = hi - lo
		return op
	}
	op.dst = op.dst[lo*op.ldc:]
	// A stored [k,m] under transA: advancing by output row means
	// advancing by stored column, and lo*lda could exceed len(a).
	if op.transA {
		op.a = op.a[lo:]
	} else {
		op.a = op.a[lo*op.lda:]
	}
	if op.panels != nil {
		op.panels = op.panels[lo*roundUp(op.k, kStep):]
	}
	op.m = hi - lo
	return op
}

// packB copies the kb×nb block of B at (pc, jc) into nr-column panels
// laid out p-major: element (p, c) of a panel of width cols sits at
// offset p·cols+c.
func packB(bpack []float32, b []float32, ldb int, transB bool, pc, jc, kb, nb int) {
	idx := 0
	for jr := 0; jr < nb; jr += gemmNR {
		cols := nb - jr
		if cols > gemmNR {
			cols = gemmNR
		}
		if transB {
			// B stored [n, k]: logical column j is storage row j.
			for c := 0; c < cols; c++ {
				src := b[(jc+jr+c)*ldb+pc : (jc+jr+c)*ldb+pc+kb]
				for p, v := range src {
					bpack[idx+p*cols+c] = v
				}
			}
			idx += cols * kb
		} else if cols == gemmNR {
			packBRows(bpack[idx:], b[pc*ldb+jc+jr:], ldb, kb)
			idx += kb * gemmNR
		} else {
			for p := 0; p < kb; p++ {
				src := b[(pc+p)*ldb+jc+jr : (pc+p)*ldb+jc+jr+cols]
				copy(bpack[idx:idx+cols], src)
				idx += cols
			}
		}
	}
}

// packBRows copies kb full-width panel rows, row p from src[p·ldb …] to
// dst[p·gemmNR …]. Each row is four 16-byte array assignments, which Go
// lowers to MOVUPS load/store pairs; a single [16]float32 assignment,
// like copy(), calls memmove once per row.
func packBRows(dst, src []float32, ldb, kb int) {
	for p := 0; p < kb; p++ {
		s := (*[gemmNR]float32)(src[p*ldb:])
		d := (*[gemmNR]float32)(dst[p*gemmNR:])
		*(*[4]float32)(d[0:4]) = *(*[4]float32)(s[0:4])
		*(*[4]float32)(d[4:8]) = *(*[4]float32)(s[4:8])
		*(*[4]float32)(d[8:12]) = *(*[4]float32)(s[8:12])
		*(*[4]float32)(d[12:16]) = *(*[4]float32)(s[12:16])
	}
}

// gemmMacro is the float32 macro kernel (gemmKernels.macro), A read in
// place: full 4×16 tiles run kern4x16Ind, row remainders one kern1x16Ind
// pass per row (each row's chains are independent), and tiles narrower
// than gemmNR — which only packed panels have — kernEdge.
func gemmMacro(dst []float32, ldc int, a []float32, ars, aps int, b []float32, bstride int, offs []int32, mb, nb, kb int, first bool) {
	for jr := 0; jr < nb; jr += gemmNR {
		cols := min(nb-jr, gemmNR)
		bt := b[jr*bstride:]
		for ir := 0; ir < mb; ir += gemmMR {
			rows := min(mb-ir, gemmMR)
			ap := a[ir*ars:]
			c := dst[ir*ldc+jr:]
			switch {
			case cols < gemmNR:
				kernEdge(c, ldc, ap, ars, aps, bt[:cols*kb], rows, cols, kb, first)
			case rows == gemmMR:
				kern4x16Ind(c, ldc, ap, ars, aps, bt, offs, kb, first)
			default:
				for r := 0; r < rows; r++ {
					kern1x16Ind(c[r*ldc:], ap[r*ars:], aps, bt, offs, kb, first)
				}
			}
		}
	}
}

// kernEdge handles tiles narrower than the vector kernels: one
// accumulator per element, sequential over the packed k chunk.
func kernEdge(c []float32, ldc int, ap []float32, ars, aps int, bp []float32, rows, cols, kb int, first bool) {
	for r := 0; r < rows; r++ {
		crow := c[r*ldc : r*ldc+cols]
		for j := 0; j < cols; j++ {
			var s float32
			if !first {
				s = crow[j]
			}
			for p := 0; p < kb; p++ {
				s += ap[r*ars+p*aps] * bp[p*cols+j]
			}
			crow[j] = s
		}
	}
}

// kern4x16Ind and kern1x16Ind run the AVX2 micro-kernels when the CPU has
// them (the gemmAVX2 gate), else their scalar twins: the same per-element
// chains, so the choice never changes a bit. A element (r, p) is
// ap[r·ars + p·aps] (kern1x16Ind's single row: ap[p·aps]); B row p is the
// gemmNR elements at base[offs[p]:]. The assembly reads neither operand
// with bounds checks: slicing offs to kb entries keeps it from reading
// past a short table, and the tile's last A element — the largest index,
// both strides being positive — must lie in ap.
func kern4x16Ind(c []float32, ldc int, ap []float32, ars, aps int, base []float32, offs []int32, kb int, first bool) {
	offs = offs[:kb]
	if (gemmMR-1)*ars+(kb-1)*aps >= len(ap) {
		panic("tensor: in-place GEMM operand A reads past its end")
	}
	if gemmAVX2 && kb > 0 {
		gemmKern4x16IndAVX(&c[0], ldc, &ap[0], ars, aps, &base[0], &offs[0], kb, first)
		return
	}
	kern4x16IndScalar(c, ldc, ap, ars, aps, base, offs, kb, first)
}

func kern1x16Ind(c []float32, ap []float32, aps int, base []float32, offs []int32, kb int, first bool) {
	offs = offs[:kb]
	if (kb-1)*aps >= len(ap) {
		panic("tensor: in-place GEMM operand A reads past its end")
	}
	if gemmAVX2 && kb > 0 {
		gemmKern1x16IndAVX(&c[0], &ap[0], aps, &base[0], &offs[0], kb, first)
		return
	}
	kern1x16IndScalar(c, ap, aps, base, offs, kb, first)
}

// kern4x16IndScalar is the portable 4×16 micro-kernel: the tile is
// computed as eight 2×4 register sub-tiles (small enough that the
// compiler keeps every accumulator in a register), each a straight
// p-loop over A's rows in place and B row p at base[offs[p]:] — the same
// per-element chains as the assembly kernel.
func kern4x16IndScalar(c []float32, ldc int, ap []float32, ars, aps int, base []float32, offs []int32, kb int, first bool) {
	for r0 := 0; r0 < gemmMR; r0 += 2 {
		for j0 := 0; j0 < gemmNR; j0 += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float32
			if !first {
				d0 := c[r0*ldc+j0 : r0*ldc+j0+4]
				d1 := c[(r0+1)*ldc+j0 : (r0+1)*ldc+j0+4]
				c00, c01, c02, c03 = d0[0], d0[1], d0[2], d0[3]
				c10, c11, c12, c13 = d1[0], d1[1], d1[2], d1[3]
			}
			a0s, a1s := ap[r0*ars:], ap[(r0+1)*ars:]
			for p, off := range offs[:kb] {
				a0, a1 := a0s[p*aps], a1s[p*aps]
				b := base[int(off)+j0 : int(off)+j0+4]
				c00 += a0 * b[0]
				c01 += a0 * b[1]
				c02 += a0 * b[2]
				c03 += a0 * b[3]
				c10 += a1 * b[0]
				c11 += a1 * b[1]
				c12 += a1 * b[2]
				c13 += a1 * b[3]
			}
			d0 := c[r0*ldc+j0 : r0*ldc+j0+4]
			d1 := c[(r0+1)*ldc+j0 : (r0+1)*ldc+j0+4]
			d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
			d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
		}
	}
}

// kern1x16IndScalar computes one row against a full-width B tile; aps is
// the row's k-stride in ap.
func kern1x16IndScalar(c []float32, ap []float32, aps int, base []float32, offs []int32, kb int, first bool) {
	for j0 := 0; j0 < gemmNR; j0 += 4 {
		var c0, c1, c2, c3 float32
		if !first {
			d := c[j0 : j0+4]
			c0, c1, c2, c3 = d[0], d[1], d[2], d[3]
		}
		for p, off := range offs[:kb] {
			a0 := ap[p*aps]
			b := base[int(off)+j0 : int(off)+j0+4]
			c0 += a0 * b[0]
			c1 += a0 * b[1]
			c2 += a0 * b[2]
			c3 += a0 * b[3]
		}
		d := c[j0 : j0+4]
		d[0], d[1], d[2], d[3] = c0, c1, c2, c3
	}
}
