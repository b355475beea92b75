package netx

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"testing"
	"time"
)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryPolicy{
		Attempts: 5, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 7,
	}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	err := Retry(context.Background(), RetryPolicy{
		Attempts: 3, Base: time.Millisecond, Seed: 7,
	}, func() error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	calls := 0
	fatal := errors.New("claim rejected")
	err := Retry(context.Background(), RetryPolicy{Attempts: 5, Base: time.Millisecond}, func() error {
		calls++
		return Permanent(fatal)
	})
	if err != fatal {
		t.Fatalf("err = %v, want the unwrapped permanent error", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, RetryPolicy{Attempts: 10, Base: 50 * time.Millisecond}, func() error {
		calls++
		cancel()
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (cancelled during backoff)", calls)
	}
}

func TestRetryBackoffIsCappedAndJittered(t *testing.T) {
	p := RetryPolicy{Base: 100 * time.Millisecond, Max: 400 * time.Millisecond,
		Multiplier: 2, Jitter: 0.5}.norm()
	delay := p.Base
	for i := 0; i < 10; i++ {
		next := time.Duration(float64(delay) * p.Multiplier)
		if next > p.Max {
			next = p.Max
		}
		delay = next
	}
	if delay != p.Max {
		t.Fatalf("delay = %v, want capped at %v", delay, p.Max)
	}
	// Deterministic jitter: two RNGs with the same seed agree, and
	// every jittered delay stays within [d*(1-j/2), d*(1+j/2)].
	a := Retryjitters(42, p, 100)
	b := Retryjitters(42, p, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		lo := time.Duration(float64(p.Base) * (1 - p.Jitter/2))
		hi := time.Duration(float64(p.Base) * (1 + p.Jitter/2))
		if a[i] < lo || a[i] > hi {
			t.Fatalf("jitter %v outside [%v, %v]", a[i], lo, hi)
		}
	}
}

// Retryjitters exposes the jitter computation for the determinism
// test.
func Retryjitters(seed int64, p RetryPolicy, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = jitteredDelay(p.Base, p.Jitter, rng)
	}
	return out
}

func TestDialerConnectTimeout(t *testing.T) {
	d := &Dialer{ConnectTimeout: 50 * time.Millisecond}
	start := time.Now()
	// RFC 5737 TEST-NET-1: packets go nowhere, so the dial must be
	// ended by our timeout, not a fast refusal.
	conn, err := d.Dial("192.0.2.1:9")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dial took %v, want bounded by connect timeout", elapsed)
	}
	if err == nil {
		// Some sandboxed network fabrics answer blackhole addresses;
		// the bounded-time property above is what matters.
		conn.Close()
	}
}

func TestTimeoutConnBoundsStalledRead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Never write: the client read must time out.
		time.Sleep(2 * time.Second)
	}()
	d := &Dialer{IOTimeout: 50 * time.Millisecond}
	conn, err := d.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	_, err = conn.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("stalled read returned after %v", elapsed)
	}
}
