package serving

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"ccperf/internal/fault"
)

// scriptedInjector lets each test script exactly which replicas are
// crashed and which (replica, id, attempt) requests fail.
type scriptedInjector struct {
	crashed func(replica int, elapsed float64) bool
	fail    func(replica int, id int64, attempt int) bool
}

func (s scriptedInjector) CrashActive(replica int, elapsed float64) bool {
	return s.crashed != nil && s.crashed(replica, elapsed)
}

func (s scriptedInjector) FailRequest(replica int, id int64, attempt int) bool {
	return s.fail != nil && s.fail(replica, id, attempt)
}

func TestBreakerStateMachine(t *testing.T) {
	var transitions []string
	b := newBreaker(3, 100*time.Millisecond, func(from, to BreakerState) {
		transitions = append(transitions, from.String()+"->"+to.String())
	})
	t0 := time.Unix(1000, 0)
	if w := b.waitTime(t0); w != 0 {
		t.Fatalf("closed breaker wait = %v", w)
	}
	// Two failures stay under the threshold of three.
	b.observe(false, t0)
	b.observe(false, t0)
	if b.current() != BreakerClosed {
		t.Fatalf("state after 2 failures = %v", b.current())
	}
	// A success resets the consecutive count.
	b.observe(true, t0)
	b.observe(false, t0)
	b.observe(false, t0)
	if b.current() != BreakerClosed {
		t.Fatal("success did not reset the failure streak")
	}
	// The third consecutive failure opens.
	b.observe(false, t0)
	if b.current() != BreakerOpen {
		t.Fatalf("state after 3 consecutive failures = %v", b.current())
	}
	if w := b.waitTime(t0.Add(40 * time.Millisecond)); w != 60*time.Millisecond {
		t.Fatalf("open breaker wait = %v, want the cooldown remainder", w)
	}
	// Cooldown elapsed: half-open, probe admitted.
	if w := b.waitTime(t0.Add(100 * time.Millisecond)); w != 0 {
		t.Fatalf("post-cooldown wait = %v", w)
	}
	if b.current() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v", b.current())
	}
	// Probe failure re-opens immediately (no threshold).
	b.observe(false, t0.Add(101*time.Millisecond))
	if b.current() != BreakerOpen {
		t.Fatalf("state after failed probe = %v", b.current())
	}
	// Second probe succeeds and closes the breaker.
	if w := b.waitTime(t0.Add(250 * time.Millisecond)); w != 0 {
		t.Fatalf("second-probe wait = %v", w)
	}
	b.observe(true, t0.Add(251*time.Millisecond))
	if b.current() != BreakerClosed {
		t.Fatalf("state after successful probe = %v", b.current())
	}
	want := []string{
		"closed->open", "open->half-open", "half-open->open",
		"open->half-open", "half-open->closed",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, transitions[i], want[i])
		}
	}
}

func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrOverloaded, http.StatusTooManyRequests},
		{ErrExpired, http.StatusGatewayTimeout},
		{ErrStopped, http.StatusServiceUnavailable},
		{ErrFaulted, http.StatusInternalServerError},
		{errors.New("anything else"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestInjectedFailureRetriesAndSucceeds(t *testing.T) {
	// Every request fails its first attempt and passes thereafter: with the
	// default retry budget everything must come back OK on attempt 2.
	inj := scriptedInjector{fail: func(_ int, _ int64, attempt int) bool { return attempt == 1 }}
	g := testGateway(t, Config{
		Replicas: 1, MaxBatch: 4, QueueCap: 64,
		RetryBackoff: time.Millisecond, BreakerThreshold: 1000,
		Injector: inj,
	})
	g.Start()
	defer g.Stop()
	const n = 8
	chans := make([]<-chan Response, 0, n)
	for i := 0; i < n; i++ {
		ch, err := g.Submit(context.Background(), testImage(int64(i)), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if resp.Attempts != 2 {
			t.Fatalf("request %d took %d attempts, want 2", i, resp.Attempts)
		}
	}
	st := g.Stats()
	if st.Faulted != n || st.Retries != n || st.Served != n {
		t.Fatalf("stats = faulted %d, retries %d, served %d; want %d each", st.Faulted, st.Retries, st.Served, n)
	}
}

func TestRetryBudgetExhaustedAnswersErrFaulted(t *testing.T) {
	inj := scriptedInjector{fail: func(int, int64, int) bool { return true }}
	g := testGateway(t, Config{
		Replicas: 1, QueueCap: 8, MaxRetries: 1,
		RetryBackoff: time.Millisecond, BreakerThreshold: 1000,
		Injector: inj,
	})
	g.Start()
	defer g.Stop()
	resp := g.Infer(context.Background(), testImage(1), time.Time{})
	if !errors.Is(resp.Err, ErrFaulted) {
		t.Fatalf("err = %v, want ErrFaulted", resp.Err)
	}
	if resp.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (original + one retry)", resp.Attempts)
	}

	// MaxRetries < 0 disables retries: first injected failure is final.
	g2 := testGateway(t, Config{
		Replicas: 1, QueueCap: 8, MaxRetries: -1,
		BreakerThreshold: 1000, Injector: inj,
	})
	g2.Start()
	defer g2.Stop()
	resp = g2.Infer(context.Background(), testImage(1), time.Time{})
	if !errors.Is(resp.Err, ErrFaulted) || resp.Attempts != 1 {
		t.Fatalf("MaxRetries<0: err=%v attempts=%d, want immediate ErrFaulted", resp.Err, resp.Attempts)
	}
	if g2.Stats().Retries != 0 {
		t.Fatalf("MaxRetries<0 still retried %d times", g2.Stats().Retries)
	}
}

func TestRetryRespectsDeadlineBudget(t *testing.T) {
	// The backoff (≥300ms) cannot fit in the 50ms deadline budget, so the
	// failed request must expire immediately instead of retrying into
	// certain failure.
	inj := scriptedInjector{fail: func(_ int, _ int64, attempt int) bool { return attempt == 1 }}
	g := testGateway(t, Config{
		Replicas: 1, QueueCap: 8,
		RetryBackoff: 300 * time.Millisecond, BreakerThreshold: 1000,
		Injector: inj,
	})
	g.Start()
	defer g.Stop()
	start := time.Now()
	resp := g.Infer(context.Background(), testImage(1), time.Now().Add(50*time.Millisecond))
	if !errors.Is(resp.Err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", resp.Err)
	}
	if resp.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no doomed retry)", resp.Attempts)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("expiry took %v; the request waited out a doomed backoff", elapsed)
	}
	if g.Stats().Retries != 0 {
		t.Fatal("a retry was scheduled past the deadline budget")
	}
}

func TestStopDrainsInFlightFaultedRequests(t *testing.T) {
	// Every attempt fails, so at Stop time requests are mid-retry (sleeping
	// in backoff goroutines) and mid-drain. Stop must answer every one of
	// them and return promptly.
	before := runtime.NumGoroutine()
	inj := scriptedInjector{fail: func(int, int64, int) bool { return true }}
	g := testGateway(t, Config{
		Replicas: 2, QueueCap: 64, MaxRetries: 3,
		RetryBackoff: 5 * time.Millisecond, BreakerThreshold: 1000,
		Injector: inj,
	})
	const n = 32
	chans := make([]<-chan Response, 0, n)
	for i := 0; i < n; i++ {
		ch, err := g.Submit(context.Background(), testImage(int64(i)), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	g.Start()
	time.Sleep(3 * time.Millisecond) // let batches fault and retries schedule
	done := make(chan struct{})
	go func() {
		g.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung with in-flight faulted requests")
	}
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if !errors.Is(resp.Err, ErrFaulted) && !errors.Is(resp.Err, ErrStopped) {
				t.Fatalf("request %d: err = %v, want ErrFaulted or ErrStopped", i, resp.Err)
			}
		default:
			t.Fatalf("request %d never answered after Stop", i)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after Stop", before, runtime.NumGoroutine())
}

func TestChaosEndToEnd(t *testing.T) {
	// The seeded end-to-end scenario: replica 0 is crashed from t=0 (its
	// breaker must open and traffic re-route to replica 1) and a low
	// error rate peppers the survivor (retries must recover it). The
	// 1ms SLO is unattainable on half capacity, so the pruning ladder is
	// the graceful-degradation backstop: the controller must step down.
	faults, err := fault.ParseSchedule("crash@0:0+3600,err:0.05,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	g := testGateway(t, Config{
		Replicas: 2, MaxBatch: 4, QueueCap: 512,
		BatchTimeout:     time.Millisecond,
		SLO:              time.Millisecond,
		ControlInterval:  2 * time.Millisecond,
		HoldIntervals:    1 << 30, // never restore during the test
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
		Injector: faults,
	})
	g.Start()
	defer g.Stop()

	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[bool]int{} // ok → count
	submit := func(k int) {
		for i := 0; i < k; i++ {
			ch, err := g.Submit(context.Background(), testImage(int64(i)), time.Time{})
			if err != nil {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp := <-ch
				mu.Lock()
				outcomes[resp.Err == nil]++
				mu.Unlock()
			}()
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := g.Stats()
		if st.BreakerOpens >= 1 && st.Degrades >= 1 && st.Retries >= 1 && st.Served > 0 {
			break
		}
		submit(64)
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	st := g.Stats()
	if st.BreakerOpens < 1 {
		t.Fatalf("crashed replica never opened its breaker: %+v", st)
	}
	if st.Served == 0 {
		t.Fatal("no requests served — traffic did not re-route to the healthy replica")
	}
	if st.Retries < 1 || st.Faulted < 1 {
		t.Fatalf("error injection never exercised the retry path: %+v", st)
	}
	if st.Degrades < 1 || g.CurrentVariant() == 0 {
		t.Fatalf("ladder never degraded under lost capacity: degrades=%d variant=%d", st.Degrades, g.CurrentVariant())
	}
	mu.Lock()
	ok := outcomes[true]
	mu.Unlock()
	if ok == 0 {
		t.Fatal("every request failed; the gateway did not stay available through the chaos")
	}
}

func TestReportErrorRate(t *testing.T) {
	r := &Report{Row: Row{Submitted: 200, Shed: 10, Expired: 5, Faulted: 5}}
	if got := r.ErrorRate(); got != 0.1 {
		t.Fatalf("error rate = %v, want 0.1", got)
	}
	if got := (&Report{}).ErrorRate(); got != 0 {
		t.Fatalf("empty report error rate = %v", got)
	}
}
