package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The batch engine. The paper's host side is one loop — the kernel
// "iteratively fetches query sequences ... until there is no more data to
// map" — and exact, k-mismatch and seed-and-extend mapping differ only in
// what is done to one read. A workload value says that; mapBatch owns the
// rest: workers claim fixed-size chunks of work units off an atomic cursor —
// work-stealing without channels — poll the context between chunks, tick
// progress, and write results by index, so any worker count yields the
// output of the sequential schedule.

// workload is one kind of mapping as the engine sees it. In is its per-read
// input (the read, or for the locate pass the result it fills in), R its
// per-read result, S a worker's scratch.
type workload[In, R, S any] interface {
	// unit is how many consecutive reads one worker must map together and in
	// order: 1, or 2 for mate pairs.
	unit() int
	// chunk is how many units a worker claims per cursor fetch: large enough
	// that the atomic add vanishes against the mapping work, small enough
	// that progress and cancellation stay responsive.
	chunk() int
	// acquire hands a worker its scratch, from a pool so the steady state
	// allocates nothing per read; release returns it.
	acquire() *S
	release(*S)
	// mapUnits maps reads — whole units, but for the lone last read of an
	// odd paired batch — into dst. It is called once per claimed chunk.
	mapUnits(sc *S, reads []In, dst []R) error
}

// batch is the shared state of one mapBatch call. Workers run as a method on
// it rather than a closure so the sequential path keeps it on the stack: an
// escaping closure would drag the cursor and counters to the heap on every
// call.
type batch[In, R, S any, W workload[In, R, S]] struct {
	w      W
	dst    []R
	reads  []In
	run    MapOptions
	units  int
	every  int
	cursor atomic.Int64
	done   atomic.Int64
}

func (b *batch[In, R, S, W]) init(w W, dst []R, reads []In, run MapOptions) {
	b.w, b.dst, b.reads, b.run = w, dst, reads, run
	b.units = (len(reads) + w.unit() - 1) / w.unit()
	if b.every = run.ProgressEvery; b.every <= 0 {
		b.every = 1024
	}
}

// worker claims chunks until the batch is drained, the context is cancelled,
// or a read fails.
func (b *batch[In, R, S, W]) worker() error {
	sc := b.w.acquire()
	defer b.w.release(sc)
	unit, chunk := b.w.unit(), b.w.chunk()
	for {
		end := int(b.cursor.Add(int64(chunk)))
		begin := end - chunk
		if begin >= b.units {
			return nil
		}
		if b.run.Context != nil {
			if err := b.run.Context.Err(); err != nil {
				return err
			}
		}
		lo, hi := begin*unit, min(end*unit, len(b.reads))
		if err := b.w.mapUnits(sc, b.reads[lo:hi], b.dst[lo:hi]); err != nil {
			return err
		}
		if b.run.Progress != nil {
			// The closing (n, n) tick is mapBatch's, once every worker is in.
			d, n := int(b.done.Add(int64(hi-lo))), hi-lo
			if d/b.every != (d-n)/b.every && d < len(b.reads) {
				b.run.Progress(d, len(b.reads))
			}
		}
	}
}

// parallel drains the batch with n concurrent workers and returns the first
// error any of them hit. It is its own function because its goroutines make
// the batch escape, and escape is a property of the variable, not the
// branch: inline, the sequential path would heap-allocate too.
func (b *batch[In, R, S, W]) parallel(n int) error {
	var (
		wg       sync.WaitGroup
		first    sync.Once
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.worker(); err != nil {
				// Nothing is left to claim: the others stop at their next fetch.
				b.cursor.Store(int64(b.units))
				first.Do(func() { firstErr = err })
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// mapBatch maps reads into dst, which must be as long, with run.Workers
// workers (0 or 1 sequential, -1 all CPUs). run.Progress sees (done, total)
// roughly every run.ProgressEvery reads (0 means 1024) — from mapping
// goroutines when there are several — and (total, total) exactly once, after
// the last read.
func mapBatch[In, R, S any, W workload[In, R, S]](w W, dst []R, reads []In, run MapOptions) error {
	if len(dst) != len(reads) {
		return fmt.Errorf("core: result slice holds %d entries for %d reads", len(dst), len(reads))
	}
	workers := run.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var err error
	if workers <= 1 {
		var b batch[In, R, S, W]
		b.init(w, dst, reads, run)
		err = b.worker()
	} else {
		b := new(batch[In, R, S, W])
		b.init(w, dst, reads, run)
		err = b.parallel(workers)
	}
	if err == nil && run.Progress != nil {
		run.Progress(len(reads), len(reads))
	}
	return err
}
