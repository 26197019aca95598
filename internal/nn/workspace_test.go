package nn

import (
	"sync"
	"testing"

	"ccperf/internal/tensor"
)

// testNet builds a small but representative network: grouped conv, fused
// conv+ReLU, LRN, pooling, flatten view, fused FC+ReLU, dropout, softmax.
func testNet(t testing.TB) *Net {
	t.Helper()
	n := NewNet("ws-test", Shape{C: 4, H: 16, W: 16})
	n.Add(
		NewConv("conv1", 8, 3, 3, 1, 1, 1, 1, 1),
		NewReLU("relu1"),
		NewLRN("lrn1"),
		NewMaxPool("pool1", 2, 2),
		NewConv("conv2", 8, 3, 3, 1, 1, 1, 1, 2), // grouped
		NewReLU("relu2"),
		NewGlobalAvgPool("gap"),
		NewFlatten("flat"),
		NewFC("fc1", 12),
		NewReLU("relu3"),
		NewDropout("drop", 0.5),
		NewFC("fc2", 10),
		NewSoftmax("prob"),
	)
	if err := n.Init(7); err != nil {
		t.Fatal(err)
	}
	return n
}

func testImage(s Shape) *tensor.Tensor {
	img := tensor.New(s.C, s.H, s.W)
	for i := range img.Data {
		img.Data[i] = float32(i%17)/17 - 0.4
	}
	return img
}

func TestWorkspaceAcquireReleaseRecycles(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Acquire(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Acquire len = %d, want 24", a.Len())
	}
	base := &a.Data[0]
	ws.Release(a)
	b := ws.Acquire(4, 3, 2) // same bucket (32) — must reuse the buffer
	if &b.Data[0] != base {
		t.Fatal("Release/Acquire did not recycle the buffer")
	}
	allocs0, _ := ws.AllocStats()
	ws.Release(b)
	c := ws.Acquire(2, 2, 2)
	ws.Release(c)
	if allocs1, _ := ws.AllocStats(); allocs1 != allocs0+1 {
		// 8 elems lands in a smaller bucket than 24 — one fresh buffer,
		// recycled header.
		t.Fatalf("allocs %d → %d, want exactly one new bucket", allocs0, allocs1)
	}
	// Releasing a foreign tensor (and double-releasing) is a no-op.
	ws.Release(tensor.New(2, 2))
	ws.Release(c)
}

func TestWorkspaceViewDoesNotCaptureForeignBuffer(t *testing.T) {
	ws := NewWorkspace()
	data := make([]float32, 24)
	v := ws.View(data, 24, 1, 1)
	if &v.Data[0] != &data[0] {
		t.Fatal("View copied instead of aliasing")
	}
	ws.Release(v)
	// The foreign buffer must NOT be handed back out by Acquire.
	got := ws.Acquire(24, 1, 1)
	if &got.Data[0] == &data[0] {
		t.Fatal("released view leaked its foreign buffer into the free list")
	}
}

func TestWorkspaceResetReclaimsEverything(t *testing.T) {
	ws := NewWorkspace()
	for i := 0; i < 4; i++ {
		ws.Acquire(8, 2, 2)
	}
	ws.Reset()
	allocs0, _ := ws.AllocStats()
	for i := 0; i < 4; i++ {
		ws.Acquire(8, 2, 2)
	}
	if allocs1, _ := ws.AllocStats(); allocs1 != allocs0 {
		t.Fatalf("post-Reset acquires allocated (%d → %d)", allocs0, allocs1)
	}
}

// TestForwardWorkspaceMatchesAlloc pins the tentpole equivalence: the
// workspace-threaded pass is numerically identical to the allocating pass,
// on dense and on pruned (CSR) weights, across repeated reuse.
func TestForwardWorkspaceMatchesAlloc(t *testing.T) {
	n := testNet(t)
	img := testImage(n.Input)
	want := n.ForwardAlloc(img)
	ws := NewWorkspace()
	for pass := 0; pass < 3; pass++ {
		got := n.Forward(img, ws)
		if len(got.Data) != len(want.Data) {
			t.Fatalf("pass %d: len %d, want %d", pass, len(got.Data), len(want.Data))
		}
		for i, v := range got.Data {
			if v != want.Data[i] {
				t.Fatalf("pass %d: data[%d] = %v, want %v", pass, i, v, want.Data[i])
			}
		}
	}

	// Prune conv2 past the sparse-execution threshold and re-check.
	p, ok := n.PrunableByName("conv2")
	if !ok {
		t.Fatal("conv2 not prunable")
	}
	w := p.Weights()
	for i := range w.Data {
		if i%2 == 0 {
			w.Data[i] = 0
		}
	}
	p.Rebuild()
	if !p.(*Conv).UsesSparseKernel() {
		t.Fatal("conv2 did not switch to CSR")
	}
	want = n.ForwardAlloc(img)
	got := n.Forward(img, ws)
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("sparse: data[%d] = %v, want %v", i, v, want.Data[i])
		}
	}
}

// TestNetForwardZeroAllocs asserts the tentpole claim end to end: a warmed
// workspace makes the whole network forward pass allocation-free.
func TestNetForwardZeroAllocs(t *testing.T) {
	n := testNet(t)
	img := testImage(n.Input)
	ws := NewWorkspace()
	n.Forward(img, ws) // warm buckets and headers
	if allocs := testing.AllocsPerRun(20, func() { n.Forward(img, ws) }); allocs != 0 {
		t.Fatalf("warmed Net.Forward allocs/run = %v, want 0", allocs)
	}
	a0, _ := ws.AllocStats()
	for i := 0; i < 10; i++ {
		n.Forward(img, ws)
	}
	if a1, _ := ws.AllocStats(); a1 != a0 {
		t.Fatalf("workspace miss counter grew %d → %d in steady state", a0, a1)
	}
}

// TestLayerForwardZeroAllocs asserts zero steady-state allocations for the
// individual conv (dense and CSR), FC, pool and LRN forward paths.
func TestLayerForwardZeroAllocs(t *testing.T) {
	in := testImage(Shape{C: 4, H: 16, W: 16})

	conv := NewConv("c", 8, 3, 3, 1, 1, 1, 1, 2)
	if err := conv.Init(4, 1); err != nil {
		t.Fatal(err)
	}
	sparse := NewConv("cs", 8, 3, 3, 1, 1, 1, 1, 1)
	if err := sparse.Init(4, 2); err != nil {
		t.Fatal(err)
	}
	for i := range sparse.weights.Data {
		if i%3 != 0 {
			sparse.weights.Data[i] = 0
		}
	}
	sparse.Rebuild()
	if !sparse.UsesSparseKernel() {
		t.Fatal("sparse conv did not switch to CSR")
	}
	pool := NewMaxPool("p", 2, 2)
	padded := &Pool{Mode: MaxPool, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, CeilMode: true}
	flat := testImage(Shape{C: 4 * 16 * 16, H: 1, W: 1})
	fc := NewFC("f", 32)
	fc.Init(flat.Len(), 3)

	cases := []struct {
		name  string
		layer Layer
		input *tensor.Tensor
	}{
		{"conv-dense-grouped", conv, in},
		{"conv-csr", sparse, in},
		{"pool", pool, in},
		{"pool-padded", padded, in},
		{"fc", fc, flat},
		{"lrn", NewLRN("n"), in},
	}
	for _, c := range cases {
		ws := NewWorkspace()
		out := c.layer.Forward(c.input, ws)
		ws.Release(out)
		allocs := testing.AllocsPerRun(50, func() {
			o := c.layer.Forward(c.input, ws)
			ws.Release(o)
		})
		if allocs != 0 {
			t.Errorf("%s: allocs/run = %v, want 0", c.name, allocs)
		}
	}
}

// TestWorkspacePoolConcurrent hammers one WorkspacePool from concurrent
// batch workers — the serving-gateway usage pattern — and checks outputs
// stay correct. Run with -race to validate the pool's synchronization.
func TestWorkspacePoolConcurrent(t *testing.T) {
	n := testNet(t)
	img := testImage(n.Input)
	want := n.ForwardAlloc(img)
	pool := NewWorkspacePool(1)
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ws := pool.Get()
				out := n.Forward(img, ws)
				for i, v := range out.Data {
					if v != want.Data[i] {
						select {
						case errc <- &mismatchErr{i: i, got: v, want: want.Data[i]}:
						default:
						}
						break
					}
				}
				pool.Put(ws)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if allocs, _, gets := pool.AllocStats(); gets != workers*rounds || allocs == 0 {
		t.Fatalf("pool stats allocs=%d gets=%d, want warm-up allocs and %d gets", allocs, gets, workers*rounds)
	}
}

// TestWorkspacePoolWarmNeverRebuilds pins the pool's free list: once it
// holds as many workspaces as batch workers run at once, batches reuse
// them whichever goroutine or P takes them, and no buffer is built again.
func TestWorkspacePoolWarmNeverRebuilds(t *testing.T) {
	n := testNet(t)
	imgs := []*tensor.Tensor{testImage(n.Input), testImage(n.Input)}
	pool := NewWorkspacePool(1)
	a, b := pool.Get(), pool.Get()
	n.Forward(imgs[0], a)
	n.Forward(imgs[1], b)
	pool.Put(a)
	pool.Put(b)
	warm, _, _ := pool.AllocStats()
	for i := 0; i < 500; i++ {
		n.ForwardBatchPool(imgs, 2, pool)
	}
	if allocs, _, _ := pool.AllocStats(); allocs != warm {
		t.Fatalf("warm pool allocated %d more buffers over 500 two-worker batches", allocs-warm)
	}
}

type mismatchErr struct {
	i         int
	got, want float32
}

func (e *mismatchErr) Error() string {
	return "concurrent forward mismatch"
}

// TestForwardBatchPoolMatchesSerial checks the pooled batch path returns
// independently-owned, correct outputs.
func TestForwardBatchPoolMatchesSerial(t *testing.T) {
	n := testNet(t)
	imgs := make([]*tensor.Tensor, 6)
	for i := range imgs {
		imgs[i] = testImage(n.Input)
		imgs[i].Data[0] = float32(i) // make each image distinct
	}
	var want []*tensor.Tensor
	for _, img := range imgs {
		want = append(want, n.ForwardAlloc(img))
	}
	pool := NewWorkspacePool(2)
	got := n.ForwardBatchPool(imgs, 3, pool)
	for i := range got {
		for j, v := range got[i].Data {
			if v != want[i].Data[j] {
				t.Fatalf("img %d: data[%d] = %v, want %v", i, j, v, want[i].Data[j])
			}
		}
	}
	// Outputs must be clones, not workspace memory that the next batch
	// overwrites.
	again := n.ForwardBatchPool(imgs, 3, pool)
	for i := range got {
		if sameData(got[i], again[i]) {
			t.Fatalf("img %d: batch outputs share workspace memory", i)
		}
	}
}
