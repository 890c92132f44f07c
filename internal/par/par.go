// Package par is the bounded worker loop shared by the pipeline's parallel
// stages. It is a leaf: it imports nothing from the module, so any layer
// (explore, global, lsh, wire) can fan work out through it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Workers knob: positive values are used as is, anything
// else means runtime.GOMAXPROCS(0).
func Workers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) on up to w goroutines. Work is
// claimed from an atomic counter, so uneven item costs balance themselves.
// fn must be safe for concurrent invocation with distinct i. With w <= 1 (or
// n <= 1) it runs serially in index order.
func For(n, w int, fn func(int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
