package parallel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if w := Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := Workers(-3); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", w)
	}
	if w := Workers(5); w != 5 {
		t.Fatalf("Workers(5) = %d", w)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]int32, n)
		ForEach(n, w, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("w=%d: index %d visited %d times", w, i, c)
			}
		}
	}
}

func TestForEachEmptyAndSmall(t *testing.T) {
	ForEach(0, 8, func(int) { t.Fatal("called for n=0") })
	hit := false
	ForEach(1, 8, func(i int) { hit = i == 0 })
	if !hit {
		t.Fatal("n=1 not visited")
	}
}

func TestForEachSerialIsOrdered(t *testing.T) {
	var order []int
	ForEach(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestFirstError(t *testing.T) {
	e1, e2 := errors.New("a"), errors.New("b")
	if err := FirstError([]error{nil, nil}); err != nil {
		t.Fatal(err)
	}
	if err := FirstError([]error{nil, e1, e2}); err != e1 {
		t.Fatalf("got %v, want first error", err)
	}
}
