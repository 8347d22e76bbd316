package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrderPreserved(t *testing.T) {
	got, err := Map(100, Options{}, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMapZeroTasks(t *testing.T) {
	got, err := Map(0, Options{}, func(i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapSingleWorkerSequentialEquivalence(t *testing.T) {
	seq, _ := Map(50, Options{Workers: 1}, func(i int) (int, error) { return 3 * i, nil })
	par, _ := Map(50, Options{Workers: 8}, func(i int) (int, error) { return 3 * i, nil })
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("sequential/parallel mismatch at %d", i)
		}
	}
}

func TestMapErrorCancels(t *testing.T) {
	var calls int32
	boom := errors.New("boom")
	_, err := Map(10000, Options{Workers: 4}, func(i int) (int, error) {
		atomic.AddInt32(&calls, 1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := atomic.LoadInt32(&calls); n == 10000 {
		t.Fatal("error did not cancel remaining work")
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	_, err := Map(10, Options{Workers: 2}, func(i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic message", err)
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(1000, Options{Context: ctx}, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEach(t *testing.T) {
	var sum int64
	err := ForEach(100, Options{}, func(i int) error {
		atomic.AddInt64(&sum, int64(i))
		return nil
	})
	if err != nil || sum != 4950 {
		t.Fatalf("sum = %d err = %v", sum, err)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}
