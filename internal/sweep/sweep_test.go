package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachRunsAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var hits [100]int32
		err := New(workers).Each(context.Background(), len(hits), func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestEachZeroItems(t *testing.T) {
	if err := New(4).Each(context.Background(), 0, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEachNoItemsHonorsContext: the n<=0 early return must report a
// dead context instead of masking it (regression: Each used to return
// nil unconditionally for n==0, so a caller looping over empty batches
// never noticed cancellation).
func TestEachNoItemsHonorsContext(t *testing.T) {
	eng := New(4)
	for _, n := range []int{0, -5} {
		if err := eng.Each(context.Background(), n, func(int) error {
			t.Error("fn called with no items")
			return nil
		}); err != nil {
			t.Fatalf("n=%d live ctx: %v", n, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := eng.Each(ctx, n, func(int) error { return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d cancelled ctx: err = %v, want context.Canceled", n, err)
		}
	}
}

func TestEachPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls int32
	err := New(2).Each(context.Background(), 1000, func(i int) error {
		atomic.AddInt32(&calls, 1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := atomic.LoadInt32(&calls); n == 1000 {
		t.Error("error did not stop the dispatch of remaining items")
	}
}

func TestEachCancellationStopsWorkersPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	var calls int32

	done := make(chan error, 1)
	go func() {
		done <- New(4).Each(ctx, 10000, func(i int) error {
			atomic.AddInt32(&calls, 1)
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			<-ctx.Done() // simulate in-flight work pinned until cancel
			return nil
		})
	}()

	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Each did not return promptly after cancellation")
	}
	if n := atomic.LoadInt32(&calls); n > 8 {
		t.Errorf("cancellation let %d items start (want <= workers per round)", n)
	}
}

func TestEachPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls int32
	err := New(4).Each(ctx, 100, func(int) error {
		atomic.AddInt32(&calls, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapKeepsIndexOrder(t *testing.T) {
	got, err := Map(context.Background(), New(8), 50, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestNewDefaultsToNumCPU(t *testing.T) {
	if w := New(0).Workers(); w != runtime.NumCPU() {
		t.Errorf("Workers() = %d, want NumCPU %d", w, runtime.NumCPU())
	}
	if w := New(-3).Workers(); w != runtime.NumCPU() {
		t.Errorf("Workers() = %d, want NumCPU %d", w, runtime.NumCPU())
	}
	if w := New(7).Workers(); w != 7 {
		t.Errorf("Workers() = %d, want 7", w)
	}
}

func TestMapPartialOnError(t *testing.T) {
	boom := errors.New("boom")
	got, err := Map(context.Background(), New(1), 10, func(i int) (int, error) {
		if i == 5 {
			return 0, boom
		}
		return i + 1, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(got) != 10 {
		t.Fatalf("partial slice len = %d, want 10", len(got))
	}
	want := []int{1, 2, 3, 4, 5, 0, 0, 0, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("partial = %v, want %v", got, want)
	}
}

// TestEachRecoversPanic: a panicking item must surface as a
// *PanicError carrying its stack (kept out of its message), stop the dispatch of the remaining
// items, and leave no worker goroutine behind.
func TestEachRecoversPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		var calls int32
		err := New(workers).Each(context.Background(), 1000, func(i int) error {
			atomic.AddInt32(&calls, 1)
			if i == 3 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 3 || pe.Value != "boom" {
			t.Errorf("workers=%d: PanicError{Index: %d, Value: %v}, want {3, boom}", workers, pe.Index, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "TestEachRecoversPanic") {
			t.Errorf("workers=%d: PanicError.Stack lacks the panicking frame:\n%s", workers, pe.Stack)
		}
		// The message reaches clients and cached results: value only,
		// never the goroutine's stack.
		if got, want := pe.Error(), "sweep: item 3 panicked: boom"; got != want {
			t.Errorf("workers=%d: Error() = %q, want %q", workers, got, want)
		}
		if n := atomic.LoadInt32(&calls); n == 1000 {
			t.Errorf("workers=%d: panic did not stop the dispatch of remaining items", workers)
		}
	}
	// Workers and the feeder exit before Each returns; allow the
	// runtime a moment to retire them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines: %d before, %d after a panicking Each", before, n)
	}
}
