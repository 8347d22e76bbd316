package main

import (
	"sort"
	"time"
)

// hostSink keeps the reference kernel's results live so the compiler cannot
// drop the work.
var hostSink float64

// hostRef times a fixed pure-Go kernel — a dense matrix multiply, a sort and
// map inserts over inputs from a fixed generator — that shares no code with
// the program under test. Timed beside each op, it tells a slow host spell
// apart from a slow program: no change to this repository can move it.
func hostRef() time.Duration {
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}

	const n = 128
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i] = float64(next()%1000) / 1000
		b[i] = float64(next()%1000) / 1000
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}

	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = next()
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	m := make(map[uint64]int, len(keys)/4)
	for i, k := range keys {
		m[k%(1<<13)] += i
	}

	hostSink += c[n*n/2] + float64(keys[len(keys)/2]%7) + float64(len(m))
	return time.Since(start)
}
