package nn

import (
	"fmt"
	"runtime"
	"sync"

	"ccperf/internal/tensor"
)

// defaultWSPool backs the convenience entry points (ForwardBatch,
// Classify) that are not wired to an explicitly configured WorkspacePool.
// Serial GEMM: batch-level parallelism already saturates the cores.
var defaultWSPool = NewWorkspacePool(1)

// ForwardBatch runs a batch of CHW images through the network using a
// worker pool — the engine-level counterpart of the GPU batch parallelism
// the paper exploits (Section 4.2.3). workers ≤ 0 uses GOMAXPROCS.
// Outputs are returned in input order. Equivalent to ForwardBatchPool with
// the package default workspace pool.
func (n *Net) ForwardBatch(images []*tensor.Tensor, workers int) []*tensor.Tensor {
	return n.ForwardBatchPool(images, workers, defaultWSPool)
}

// ForwardBatchPool is ForwardBatch running each worker's passes through a
// workspace taken from pool, so steady-state batches allocate only the
// (small) output clones — the activations that must outlive workspace
// reuse. A nil pool heap-allocates everything.
//
// Worker w runs images w, w+workers, …. With two or more images, each
// dense FC runs once over the whole batch, its rows split across the
// workers, so the FC weights stream from memory once per batch instead of
// once per image; every other layer runs per image on the workers. The
// outputs are bit-identical to Forward's either way.
func (n *Net) ForwardBatchPool(images []*tensor.Tensor, workers int, pool *WorkspacePool) []*tensor.Tensor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(images))
	out := make([]*tensor.Tensor, len(images))
	if workers == 0 {
		return out
	}
	wss := make([]*Workspace, workers) // nil without a pool
	if pool != nil {
		for w := range wss {
			wss[w] = pool.Get()
		}
	}
	if len(images) > 1 {
		n.forwardBatchFC(images, out, wss)
		if pool != nil {
			for i := range out {
				out[i] = out[i].Clone()
			}
		}
	} else {
		onWorkers(workers, func(w int) {
			for i := w; i < len(images); i += workers {
				out[i] = n.Forward(images[i], wss[w])
				if pool != nil {
					out[i] = out[i].Clone()
				}
			}
		})
	}
	if pool != nil {
		for _, ws := range wss {
			pool.Put(ws)
		}
	}
	return out
}

// forwardBatchFC sets out[i] to the output of images[i], running image
// i's layers in workspace wss[i % len(wss)]. The layers other than dense
// FCs run per image on the workers, through the loop Forward runs; each
// dense FC runs once for all images (tensor.ParallelMatVecsFusedInto),
// while no worker touches its workspace. A workspace is reset once per
// batch, by the pool, not per image as Forward resets it, so each image's
// activations stay valid while its worker runs the other images.
func (n *Net) forwardBatchFC(images, out []*tensor.Tensor, wss []*Workspace) {
	for _, img := range images {
		n.checkInput(img)
	}
	copy(out, images)
	workers := len(wss)
	perImage := func(from, to int) {
		if from == to {
			return
		}
		onWorkers(workers, func(w int) {
			for i := w; i < len(out); i += workers {
				out[i] = n.forwardLayers(out[i], wss[w], from, to)
			}
		})
	}
	ys := make([]*tensor.Tensor, len(out))
	xd, yd := make([][]float32, len(out)), make([][]float32, len(out))
	from := 0
	for l := range n.layers {
		f, ok := n.layers[l].(*FC)
		if !ok || f.useCSR {
			continue // CSR FCs run per image
		}
		perImage(from, l)
		for i, x := range out {
			ys[i] = wsAcquire(wss[i%workers], f.Out, 1, 1)
			xd[i], yd[i] = x.Data, ys[i].Data
		}
		tensor.ParallelMatVecsFusedInto(yd, f.weights, xd, f.bias, f.fuseReLU, workers)
		for i, x := range out {
			if ws := wss[i%workers]; ws != nil {
				ws.Release(x)
			}
		}
		copy(out, ys)
		from = l + 1
	}
	perImage(from, len(n.layers))
}

// onWorkers runs fn(0), …, fn(workers−1) concurrently, fn(0) on the
// calling goroutine, and returns once all of them have.
func onWorkers(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	fn(0)
	wg.Wait()
}

// Classify runs one image and returns its Top-1 class index and the Top-k
// class indices in descending probability order.
func (n *Net) Classify(img *tensor.Tensor, k int) (top1 int, topK []int, err error) {
	ws := defaultWSPool.Get()
	defer defaultWSPool.Put(ws)
	out := n.Forward(img, ws)
	if k < 1 || k > out.Len() {
		return 0, nil, fmt.Errorf("nn: k=%d out of range for %d classes", k, out.Len())
	}
	topK = out.TopK(k)
	return topK[0], topK, nil
}

// AccuracyOn evaluates Top-1 and Top-k accuracy of the network over a
// labeled image set, running the batch through the worker pool.
func (n *Net) AccuracyOn(images []*tensor.Tensor, labels []int, k, workers int) (top1, topK float64, err error) {
	if len(images) == 0 {
		return 0, 0, fmt.Errorf("nn: empty evaluation set")
	}
	if len(images) != len(labels) {
		return 0, 0, fmt.Errorf("nn: %d images but %d labels", len(images), len(labels))
	}
	outs := n.ForwardBatch(images, workers)
	if k < 1 || k > outs[0].Len() {
		return 0, 0, fmt.Errorf("nn: k=%d out of range for %d classes", k, outs[0].Len())
	}
	var c1, ck int
	for i, out := range outs {
		tk := out.TopK(k)
		if tk[0] == labels[i] {
			c1++
		}
		for _, j := range tk {
			if j == labels[i] {
				ck++
				break
			}
		}
	}
	total := float64(len(images))
	return float64(c1) / total, float64(ck) / total, nil
}
