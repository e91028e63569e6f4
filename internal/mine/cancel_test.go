package mine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"assertionbench/internal/bench"
	"assertionbench/internal/llm"
	"assertionbench/internal/mine"
)

// pollCtx is a context whose Err starts returning err at its n-th call
// and keeps returning it, with Done closed from then on. It interrupts a
// run at a deterministic poll without a timer goroutine, so a goroutine
// count taken around the call sees only the code under test. It is safe
// for concurrent use, as both miners of a pair poll it.
type pollCtx struct {
	context.Context
	n     int64
	err   error
	polls atomic.Int64
	once  sync.Once
	done  chan struct{}
}

func newPollCtx(n int64, err error) *pollCtx {
	return &pollCtx{Context: context.Background(), n: n, err: err, done: make(chan struct{})}
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) < c.n {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return c.err
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) fired() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// TestMinersHonourCancellation interrupts GoldMine, Harm, Both and
// bench.MineExample before the run, at a range of polls inside it, and
// by an expired deadline. An interrupted call must return ctx.Err() and
// no result, never a shortened one; a call whose context never fired
// must return the uninterrupted result. No call may leave a goroutine
// running.
func TestMinersHonourCancellation(t *testing.T) {
	d := bench.TrainDesigns()[0]
	nl := elaborate(t, d)
	opt := mine.Options{Seed: 1, MaxAssertions: 10, FPV: mineFPV(1)}
	iopt := bench.ICLOptions{Seed: 1, MaxAssertions: 10, FPV: mineFPV(1)}
	type outcome struct {
		res any
		err error
	}
	calls := []struct {
		name string
		run  func(context.Context) outcome
		zero any
	}{
		{"goldmine", func(ctx context.Context) outcome {
			ms, err := mine.GoldMine(ctx, nl, opt)
			return outcome{ms, err}
		}, []mine.Mined(nil)},
		{"harm", func(ctx context.Context) outcome {
			ms, err := mine.Harm(ctx, nl, opt)
			return outcome{ms, err}
		}, []mine.Mined(nil)},
		{"both", func(ctx context.Context) outcome {
			gm, hm, err := mine.Both(ctx, nl, opt)
			return outcome{[2][]mine.Mined{gm, hm}, err}
		}, [2][]mine.Mined{}},
		{"example", func(ctx context.Context) outcome {
			ex, err := bench.MineExample(ctx, d, iopt)
			return outcome{ex, err}
		}, llm.Example{}},
	}
	// run calls fn and reports a goroutine that outlived the call. A
	// joined goroutine may still be on its way out when the call returns,
	// so the goroutine count is given time to settle; a miner still at
	// work after the call shows as a poll of a pollCtx made after it
	// returned.
	run := func(name string, fn func(context.Context) outcome, ctx context.Context) outcome {
		before := runtime.NumGoroutine()
		out := fn(ctx)
		pc, _ := ctx.(*pollCtx)
		var polled int64
		if pc != nil {
			polled = pc.polls.Load()
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Errorf("%s: %d goroutines before the call, %d after", name, before, runtime.NumGoroutine())
				break
			}
			time.Sleep(time.Millisecond)
		}
		if pc != nil && pc.polls.Load() != polled {
			t.Errorf("%s: context polled after the call returned", name)
		}
		return out
	}
	for _, c := range calls {
		full := c.run(context.Background())
		if full.err != nil {
			t.Fatalf("%s: uninterrupted run: %v", c.name, full.err)
		}
		interrupted := func(label string, out outcome, want error) {
			t.Helper()
			if !errors.Is(out.err, want) {
				t.Errorf("%s %s: err %v, want %v", c.name, label, out.err, want)
			}
			if !reflect.DeepEqual(out.res, c.zero) {
				t.Errorf("%s %s: returned a result with the error: %+v", c.name, label, out.res)
			}
		}

		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		interrupted("pre-canceled", run(c.name, c.run, canceled), context.Canceled)
		// A deadline already past cancels the context at creation,
		// without a timer goroutine.
		expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		interrupted("expired deadline", run(c.name, c.run, expired), context.DeadlineExceeded)
		cancel()

		// Count the polls of an uninterrupted run, then interrupt at
		// polls spread from the first to the last; one past the last
		// never fires.
		probe := newPollCtx(math.MaxInt64, context.Canceled)
		if out := c.run(probe); out.err != nil || !reflect.DeepEqual(out.res, full.res) {
			t.Fatalf("%s: probe run differs from the uninterrupted run (err %v)", c.name, out.err)
		}
		polls := probe.polls.Load()
		ns := []int64{polls, polls + 1}
		for n := int64(1); n < polls; n += max(polls/16, 1) {
			ns = append(ns, n)
		}
		for _, want := range []error{context.Canceled, context.DeadlineExceeded} {
			for _, n := range ns {
				ctx := newPollCtx(n, want)
				out := run(c.name, c.run, ctx)
				switch {
				case ctx.fired():
					interrupted(fmt.Sprintf("interrupted at poll %d of %d", n, polls), out, want)
				case n <= polls:
					t.Errorf("%s: poll %d of %d never came", c.name, n, polls)
				case out.err != nil || !reflect.DeepEqual(out.res, full.res):
					t.Errorf("%s: context never fired, yet the result differs (err %v)", c.name, out.err)
				}
			}
		}
	}
}
