package serving

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ccperf/internal/telemetry"
	"ccperf/internal/tensor"
)

func benchGateway(tb testing.TB, cfg Config) *Gateway {
	tb.Helper()
	if cfg.Ladder == nil {
		ladder, err := DemoLadder([]float64{0, 0.9})
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Ladder = ladder
	}
	cfg.Registry = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(64)
	g, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// warmGateway pushes n requests through the gateway before the timed
// region so one-time costs — replica spin-up, workspace-pool minting,
// size-bucket fills — don't pollute the steady-state B/op and allocs/op
// numbers (which would otherwise swing with -benchtime/-count as the
// constant amortizes over a different b.N).
func warmGateway(b *testing.B, g *Gateway, img *tensor.Tensor, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		ch, err := g.Submit(context.Background(), img, time.Time{})
		if err != nil {
			b.Fatal(err)
		}
		if resp := <-ch; resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
}

// BenchmarkBatcher measures coalescing overhead: cost per request of the
// queue→batch→forward→respond cycle at each batch size, against a single
// replica fed exactly one batch at a time.
func BenchmarkBatcher(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			g := benchGateway(b, Config{
				Replicas: 1, MaxBatch: batch, QueueCap: batch * 2,
				BatchTimeout: 50 * time.Microsecond,
			})
			g.Start()
			defer g.Stop()
			img := SyntheticImage(TinyShape.C, TinyShape.H, TinyShape.W, 1)
			chans := make([]<-chan Response, batch)
			warmGateway(b, g, img, 2*batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range chans {
					ch, err := g.Submit(context.Background(), img, time.Time{})
					if err != nil {
						b.Fatal(err)
					}
					chans[j] = ch
				}
				for _, ch := range chans {
					if resp := <-ch; resp.Err != nil {
						b.Fatal(resp.Err)
					}
				}
			}
			b.StopTimer()
			reqs := float64(b.N * batch)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/req")
		})
	}
}

// throughputConfig is BenchmarkGatewayThroughput's gateway.
func throughputConfig() Config {
	return Config{
		Replicas: 2, MaxBatch: 8, QueueCap: 128,
		BatchTimeout: 200 * time.Microsecond,
	}
}

// BenchmarkGatewayThroughput saturates the gateway from a single producer
// and reports sustained requests/second through the full admission → batch
// → forward path.
func BenchmarkGatewayThroughput(b *testing.B) {
	g := benchGateway(b, throughputConfig())
	g.Start()
	defer g.Stop()
	img := SyntheticImage(TinyShape.C, TinyShape.H, TinyShape.W, 2)
	warmGateway(b, g, img, 32)
	b.ReportAllocs()
	b.ResetTimer()
	if err := saturate(g, img, b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "req/s")
	}
}

// saturate submits n requests from one producer as fast as admission
// takes them and returns once all n have completed. When the queue is
// full it waits for one completion before retrying, and counts that
// completion toward the n it drains.
func saturate(g *Gateway, img *tensor.Tensor, n int) error {
	done := make(chan Response, n)
	submitted, completed := 0, 0
	for submitted < n {
		ch, err := g.Submit(context.Background(), img, time.Time{})
		if errors.Is(err, ErrOverloaded) {
			if resp := <-done; resp.Err != nil {
				return resp.Err
			}
			completed++
			continue
		}
		if err != nil {
			return err
		}
		submitted++
		go func() { done <- <-ch }()
	}
	for ; completed < submitted; completed++ {
		if resp := <-done; resp.Err != nil {
			return resp.Err
		}
	}
	return nil
}

// TestSaturateDrains runs BenchmarkGatewayThroughput's loop at one request
// and at four admission queues' worth, which must shed and wait for
// completions before it drains, and fails if either run does not return.
func TestSaturateDrains(t *testing.T) {
	cfg := throughputConfig()
	g := benchGateway(t, cfg)
	g.Start()
	defer g.Stop()
	img := SyntheticImage(TinyShape.C, TinyShape.H, TinyShape.W, 2)
	for _, n := range []int{1, 4 * cfg.QueueCap} {
		errc := make(chan error, 1)
		go func() { errc <- saturate(g, img, n) }()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("n=%d: saturate did not return", n)
		}
	}
	if g.Stats().Shed == 0 {
		t.Fatal("the admission queue never filled, so the overload path did not run")
	}
}
