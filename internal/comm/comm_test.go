package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestPointToPointOrder(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []float32{1})
			c.Send(1, 7, []float32{2})
			c.Send(1, 7, []float32{3})
			return nil
		}
		for want := 1; want <= 3; want++ {
			m := c.Recv(0, 7)
			if len(m) != 1 || m[0] != float32(want) {
				return fmt.Errorf("got %v want %d", m, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MessagesSent() != 3 {
		t.Errorf("messages = %d", w.MessagesSent())
	}
	if w.BytesSent() != 12 {
		t.Errorf("bytes = %d", w.BytesSent())
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float32{42}
			c.Send(1, 0, buf)
			buf[0] = 99 // mutating after send must not affect the receiver
			return nil
		}
		m := c.Recv(0, 0)
		if m[0] != 42 {
			return fmt.Errorf("payload mutated in flight: %v", m[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		w := NewWorld(n)
		var before, violations int64
		err := w.Run(func(c *Comm) error {
			atomic.AddInt64(&before, 1)
			c.Barrier()
			if atomic.LoadInt64(&before) != int64(n) {
				atomic.AddInt64(&violations, 1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if violations != 0 {
			t.Errorf("n=%d: %d tasks passed the barrier early", n, violations)
		}
	}
}

func TestAllReduce(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		w := NewWorld(n)
		err := w.Run(func(c *Comm) error {
			v := float64(c.Rank() + 1)
			sum := c.AllReduceSum(v)
			want := float64(n*(n+1)) / 2
			if sum != want {
				return fmt.Errorf("sum = %v want %v", sum, want)
			}
			if mx := c.AllReduceMax(v); mx != float64(n) {
				return fmt.Errorf("max = %v", mx)
			}
			if mn := c.AllReduceMin(v); mn != 1 {
				return fmt.Errorf("min = %v", mn)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestGatherAndBcast(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		mine := []float32{float32(c.Rank()), float32(c.Rank() * 10)}
		parts := c.Gather(0, mine)
		if c.Rank() == 0 {
			for r := 0; r < 4; r++ {
				if parts[r][0] != float32(r) || parts[r][1] != float32(r*10) {
					return fmt.Errorf("gather wrong for rank %d: %v", r, parts[r])
				}
			}
		} else if parts != nil {
			return errors.New("non-root should get nil from Gather")
		}
		got := c.Bcast(0, []float32{123})
		if got[0] != 123 {
			return fmt.Errorf("bcast got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCollect(t *testing.T) {
	w := NewWorld(3)
	vals, err := RunCollect(w, func(c *Comm) (int, error) {
		return c.Rank() * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range vals {
		if v != 2*r {
			t.Errorf("rank %d value %d", r, v)
		}
	}
}

func TestTaskErrorPropagates(t *testing.T) {
	w := NewWorld(3)
	sentinel := errors.New("boom")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestTaskPanicRecovered(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			panic("injected failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic should surface as error")
	}
}

func TestInvalidRankPanicsAsError(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(5, 0, nil) // out of range
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error for invalid destination")
	}
}

func TestTagMismatchDetected(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float32{1})
			return nil
		}
		c.Recv(0, 2) // wrong tag: protocol bug
		return nil
	})
	if err == nil {
		t.Fatal("expected tag mismatch error")
	}
}
