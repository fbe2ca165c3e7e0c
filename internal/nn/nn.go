// Package nn is GoFI's neural-network substrate: a layer/module framework
// with the forward-hook mechanism that the fault injector (package core)
// instruments, mirroring the role PyTorch's nn.Module and hook API play for
// PyTorchFI.
//
// A model is a tree of Layers. Containers (Sequential, Residual, Concat)
// compose leaf layers (Conv2d, Linear, ReLU, pooling, BatchNorm2d, ...).
// Every layer supports:
//
//   - Forward: compute the layer output, caching whatever the backward pass
//     needs. Containers invoke children through Run, which fires any
//     registered forward hooks after the child computes its output — hooks
//     observe and may mutate the output tensor in place, which is exactly
//     how GoFI perturbs neurons at runtime without touching model code.
//   - Backward: propagate a gradient, accumulating parameter gradients.
//   - Params: expose trainable parameters for optimizers and weight
//     perturbation.
//
// Models are not safe for concurrent use: layers cache activations between
// Forward and Backward. Injection campaigns that want parallelism give each
// worker its own model instance sharing parameter tensors (see ShareParams).
package nn

import (
	"fmt"
	"strings"
	"sync/atomic"

	"gofi/internal/tensor"
)

// Layer is a node in a model tree.
type Layer interface {
	// Forward computes the layer's output for x.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients along the way. It must be called after Forward.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's own trainable parameters (not its
	// children's).
	Params() []*Param
	// Name returns the layer's construction-time name ("" if unnamed).
	Name() string
}

// Container is implemented by layers that have child layers.
type Container interface {
	Layer
	Children() []Layer
}

// TrainAware is implemented by layers whose behaviour differs between
// training and evaluation (BatchNorm2d, Dropout).
type TrainAware interface {
	SetTraining(training bool)
}

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name string
	Data *tensor.Tensor
	Grad *tensor.Tensor
}

// ForwardHook observes a layer's forward pass after the output is
// computed. The hook may mutate out in place; this is the documented
// perturbation mechanism. It must not retain out beyond the call.
type ForwardHook func(l Layer, in, out *tensor.Tensor)

// ForwardPreHook observes a layer's input before the layer computes,
// mirroring PyTorch's register_forward_pre_hook. It may mutate in in
// place; note that in may be another layer's output tensor, so pre-hooks
// that mutate should only be used when that aliasing is intended.
type ForwardPreHook func(l Layer, in *tensor.Tensor)

// BackwardHook observes the gradient flowing *out of* a layer's backward
// pass (dL/d(layer output)), before the layer consumes it. Used by
// Grad-CAM to capture feature-map gradients.
type BackwardHook func(l Layer, gradOut *tensor.Tensor)

// HookHandle identifies a registered hook so it can be removed, mirroring
// the handle returned by PyTorch's register_forward_hook.
type HookHandle struct {
	site *Base
	id   int
}

// Remove deregisters the hook. Removing twice is a no-op.
func (h HookHandle) Remove() {
	if h.site != nil {
		h.site.removeHook(h.id)
	}
}

type registeredHook struct {
	id  int
	pre ForwardPreHook
	fwd ForwardHook
	bwd BackwardHook
}

// Base carries the state shared by every layer: its name, training flag
// and hook registry. Embed it (unexported field semantics preserved: the
// registry itself is unexported). The zero value is ready to use.
type Base struct {
	name     string
	training bool
	hooks    []registeredHook
	nextID   int

	// Output-buffer reuse (see SetOutputReuse). Up to two cached buffers
	// are kept, most recently used first: batched fault-injection
	// campaigns alternate each layer between a batch-1 clean-prefix shape
	// and a batch-K packed-suffix shape, and a single slot would
	// reallocate on every flip.
	reuseOutput bool
	outBufs     [2]*tensor.Tensor
}

// NewBase returns a Base with the given name.
func NewBase(name string) Base { return Base{name: name} }

// Name returns the layer's name.
func (b *Base) Name() string { return b.name }

// SetName assigns the layer's name (used by model builders).
func (b *Base) SetName(name string) { b.name = name }

// SetTraining flips the layer between training and evaluation behaviour.
func (b *Base) SetTraining(training bool) { b.training = training }

// Training reports whether the layer is in training mode.
func (b *Base) Training() bool { return b.training }

// SetOutputReuse opts the layer in to (or out of) reusing one cached
// output buffer across forward passes instead of allocating per call.
//
// Reuse changes the aliasing contract: the tensor a forward pass returns
// is overwritten by the next forward pass of the same layer. That is safe
// exactly when each output is fully consumed before the next call —
// which holds for campaign worker replicas, where every trial's logits
// are reduced to a classification before the next trial runs — and is
// unsafe whenever outputs are retained (Grad-CAM feature-map captures,
// code comparing outputs of two runs, training graphs). It is therefore
// strictly opt-in, per layer; use nn.SetOutputReuse to flip a whole tree.
func (b *Base) SetOutputReuse(on bool) {
	b.reuseOutput = on
	if !on {
		b.outBufs = [2]*tensor.Tensor{}
	}
}

// OutputReuse reports whether output-buffer reuse is enabled.
func (b *Base) OutputReuse() bool { return b.reuseOutput }

// output returns the buffer a forward pass should write into: a cached
// one when reuse is on and a cached shape matches, a fresh tensor
// otherwise. With reuse on the contents are stale — callers must fully
// overwrite every element (Conv2d, Linear, ReLU, Concat and eval-mode
// BatchNorm2d forwards do). The matched buffer is promoted to slot 0 so
// the cache keeps the two most recently used shapes.
func (b *Base) output(shape ...int) *tensor.Tensor {
	// New is handed a copy, so the caller's shape arguments never leave
	// its stack: a cached buffer costs no allocation.
	fresh := func() *tensor.Tensor { return tensor.New(append([]int(nil), shape...)...) }
	if !b.reuseOutput {
		return fresh()
	}
	if t := b.outBufs[0]; t != nil && hasShape(t, shape) {
		return t
	}
	if t := b.outBufs[1]; t != nil && hasShape(t, shape) {
		b.outBufs[0], b.outBufs[1] = t, b.outBufs[0]
		return t
	}
	t := fresh()
	b.outBufs[0], b.outBufs[1] = t, b.outBufs[0]
	return t
}

// hasShape reports whether t has the given shape, without copying t's.
func hasShape(t *tensor.Tensor, shape []int) bool {
	if t.Rank() != len(shape) {
		return false
	}
	for i, v := range shape {
		if t.Dim(i) != v {
			return false
		}
	}
	return true
}

// hookGen counts hook registrations and removals on every layer in the
// process (see HookGeneration).
var hookGen atomic.Uint64

// HookGeneration returns a number that changes whenever a hook is
// registered on or removed from any layer, so a caller can cache what it
// derives from the hooks of a model tree until the number moves.
func HookGeneration() uint64 { return hookGen.Load() }

// RegisterForwardHook attaches fn to this layer and returns a removable
// handle. Hooks run in registration order after the layer computes its
// output.
func (b *Base) RegisterForwardHook(fn ForwardHook) HookHandle {
	hookGen.Add(1)
	b.nextID++
	b.hooks = append(b.hooks, registeredHook{id: b.nextID, fwd: fn})
	return HookHandle{site: b, id: b.nextID}
}

// RegisterForwardPreHook attaches fn observing (and optionally mutating)
// the layer's input before the layer computes.
func (b *Base) RegisterForwardPreHook(fn ForwardPreHook) HookHandle {
	hookGen.Add(1)
	b.nextID++
	b.hooks = append(b.hooks, registeredHook{id: b.nextID, pre: fn})
	return HookHandle{site: b, id: b.nextID}
}

// RegisterBackwardHook attaches fn observing the layer's output gradient.
func (b *Base) RegisterBackwardHook(fn BackwardHook) HookHandle {
	hookGen.Add(1)
	b.nextID++
	b.hooks = append(b.hooks, registeredHook{id: b.nextID, bwd: fn})
	return HookHandle{site: b, id: b.nextID}
}

// HookCount returns the number of registered hooks (forward + backward).
func (b *Base) HookCount() int { return len(b.hooks) }

func (b *Base) removeHook(id int) {
	for i, h := range b.hooks {
		if h.id == id {
			hookGen.Add(1)
			b.hooks = append(b.hooks[:i], b.hooks[i+1:]...)
			return
		}
	}
}

func (b *Base) firePre(l Layer, in *tensor.Tensor) {
	for _, h := range b.hooks {
		if h.pre != nil {
			h.pre(l, in)
		}
	}
}

func (b *Base) fireForward(l Layer, in, out *tensor.Tensor) {
	for _, h := range b.hooks {
		if h.fwd != nil {
			h.fwd(l, in, out)
		}
	}
}

func (b *Base) fireBackward(l Layer, gradOut *tensor.Tensor) {
	for _, h := range b.hooks {
		if h.bwd != nil {
			h.bwd(l, gradOut)
		}
	}
}

// hookSite is the internal interface Run uses to fire hooks. *Base
// implements it, so every layer embedding Base is a hook site.
type hookSite interface {
	firePre(l Layer, in *tensor.Tensor)
	fireForward(l Layer, in, out *tensor.Tensor)
	fireBackward(l Layer, gradOut *tensor.Tensor)
}

// Run fires l's pre-hooks, executes l.Forward(x), and then fires l's
// forward hooks. All layer invocations — the model root and every
// container child — must go through Run for hooks to fire; containers in
// this package do.
func Run(l Layer, x *tensor.Tensor) *tensor.Tensor {
	hs, ok := l.(hookSite)
	if ok {
		hs.firePre(l, x)
	}
	out := l.Forward(x)
	if ok {
		hs.fireForward(l, x, out)
	}
	return out
}

// RunBackward fires l's backward hooks on grad and then executes
// l.Backward(grad).
func RunBackward(l Layer, grad *tensor.Tensor) *tensor.Tensor {
	if hs, ok := l.(hookSite); ok {
		hs.fireBackward(l, grad)
	}
	return l.Backward(grad)
}

// Walk visits every layer in the tree in depth-first pre-order, calling fn
// with a dotted path. A layer's own name is used when set; otherwise a
// positional name "<type>#<index>" is synthesized, so paths are stable for
// a fixed architecture. When a child's name already repeats the tail of
// its parent's path (model builders often name children with their full
// context), the overlap is collapsed so paths stay readable.
func Walk(root Layer, fn func(path string, l Layer)) {
	walk(root, pathName(root, 0, true), fn)
}

func walk(l Layer, path string, fn func(path string, l Layer)) {
	fn(path, l)
	if c, ok := l.(Container); ok {
		for i, child := range c.Children() {
			walk(child, joinPath(path, pathName(child, i, false)), fn)
		}
	}
}

// joinPath appends child to parent, collapsing duplicated context: the
// longest prefix of the child's segments that already occurs as a
// contiguous segment run in the parent path is dropped, so
// joinPath("a.b.c", "b.c.d") == "a.b.c.d" and
// joinPath("a.b.c.x", "b.c.d") == "a.b.c.x.d".
func joinPath(parent, child string) string {
	cs := strings.Split(child, ".")
	ps := strings.Split(parent, ".")
	for k := len(cs) - 1; k > 0; k-- {
		if containsRun(ps, cs[:k]) {
			return parent + "." + strings.Join(cs[k:], ".")
		}
	}
	return parent + "." + child
}

// containsRun reports whether needle occurs as a contiguous run in hay.
func containsRun(hay, needle []string) bool {
	if len(needle) == 0 || len(needle) > len(hay) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(hay); i++ {
		for j, s := range needle {
			if hay[i+j] != s {
				continue outer
			}
		}
		return true
	}
	return false
}

func pathName(l Layer, idx int, isRoot bool) string {
	if n := l.Name(); n != "" {
		return n
	}
	if isRoot {
		return fmt.Sprintf("%T", l)
	}
	return fmt.Sprintf("%T#%d", l, idx)
}

// AllParams collects every parameter in the tree, depth-first.
func AllParams(root Layer) []*Param {
	var ps []*Param
	Walk(root, func(_ string, l Layer) {
		ps = append(ps, l.Params()...)
	})
	return ps
}

// ZeroGrads zeroes all parameter gradients in the tree.
func ZeroGrads(root Layer) {
	for _, p := range AllParams(root) {
		p.Grad.Zero()
	}
}

// SetTraining sets training mode on every TrainAware layer in the tree.
func SetTraining(root Layer, training bool) {
	Walk(root, func(_ string, l Layer) {
		if ta, ok := l.(TrainAware); ok {
			ta.SetTraining(training)
		}
	})
}

// SetOutputReuse flips output-buffer reuse on every layer in the tree.
// See Base.SetOutputReuse for the aliasing contract; enable it only on
// models whose outputs are consumed before the next forward pass, such as
// campaign worker replicas.
func SetOutputReuse(root Layer, on bool) {
	Walk(root, func(_ string, l Layer) {
		if s, ok := l.(interface{ SetOutputReuse(bool) }); ok {
			s.SetOutputReuse(on)
		}
	})
}

// ParamCount returns the total number of scalar parameters in the tree.
func ParamCount(root Layer) int {
	n := 0
	for _, p := range AllParams(root) {
		n += p.Data.Len()
	}
	return n
}

// batchNorms collects the BatchNorm2d layers in walk order; their running
// statistics are model state that ShareParams/CopyParams must carry even
// though they are not gradient-trained parameters.
func batchNorms(root Layer) []*BatchNorm2d {
	var out []*BatchNorm2d
	Walk(root, func(_ string, l Layer) {
		if bn, ok := l.(*BatchNorm2d); ok {
			out = append(out, bn)
		}
	})
	return out
}

func checkMatched(op string, dst, src Layer) ([]*Param, []*Param, error) {
	d := AllParams(dst)
	s := AllParams(src)
	if len(d) != len(s) {
		return nil, nil, fmt.Errorf("nn: %s parameter count mismatch: dst %d vs src %d", op, len(d), len(s))
	}
	for i := range d {
		if !d[i].Data.SameShape(s[i].Data) {
			return nil, nil, fmt.Errorf("nn: %s shape mismatch at %q: %v vs %v", op, d[i].Name, d[i].Data.Shape(), s[i].Data.Shape())
		}
	}
	if len(batchNorms(dst)) != len(batchNorms(src)) {
		return nil, nil, fmt.Errorf("nn: %s batch-norm count mismatch", op)
	}
	return d, s, nil
}

// ShareParams points dst's parameters (and batch-norm running statistics)
// at src's tensors. The two models must have identical architectures (same
// walk order and shapes). Gradients remain per-instance. This is how
// campaign workers share one set of trained weights across
// goroutine-private model replicas.
func ShareParams(dst, src Layer) error {
	d, s, err := checkMatched("ShareParams", dst, src)
	if err != nil {
		return err
	}
	for i := range d {
		d[i].Data = s[i].Data
	}
	db, sb := batchNorms(dst), batchNorms(src)
	for i := range db {
		db[i].RunningMean = sb[i].RunningMean
		db[i].RunningVar = sb[i].RunningVar
	}
	return nil
}

// CopyParams deep-copies src's parameter values and batch-norm running
// statistics into dst. Architectures must match.
func CopyParams(dst, src Layer) error {
	d, s, err := checkMatched("CopyParams", dst, src)
	if err != nil {
		return err
	}
	for i := range d {
		d[i].Data.CopyFrom(s[i].Data)
	}
	db, sb := batchNorms(dst), batchNorms(src)
	for i := range db {
		db[i].RunningMean.CopyFrom(sb[i].RunningMean)
		db[i].RunningVar.CopyFrom(sb[i].RunningVar)
	}
	return nil
}
