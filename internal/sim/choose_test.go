package sim

import (
	"errors"
	"reflect"
	"testing"
)

// TestChooseDispatchesThePick: a chosen schedule offers every pending
// delivery, never a spawn resume, and dispatches the one picked even
// when it is later in time; it survives UseScheduler, and -1 ends the
// run where it stands.
func TestChooseDispatchesThePick(t *testing.T) {
	for _, stop := range []bool{false, true} {
		k := NewKernel()
		var offered [][]any
		k.Choose(func(cs []Choice) int {
			var msgs []any
			for _, c := range cs {
				msgs = append(msgs, c.Msg)
			}
			offered = append(offered, msgs)
			if stop && len(offered) == 2 {
				return -1
			}
			return len(cs) - 1 // the latest posted
		})
		k.UseScheduler(SchedHeap, 0, 0)
		var got []any
		var at []Time
		var recv *Proc
		recv = k.Spawn("recv", func(p *Proc) {
			for i := 0; i < 3; i++ {
				got = append(got, p.Recv().Msg)
				at = append(at, p.Now())
			}
		})
		k.Spawn("send", func(p *Proc) {
			p.Send(recv, "a", 1*Microsecond)
			p.Send(recv, "b", 2*Microsecond)
			p.Send(recv, "c", 3*Microsecond)
		})
		err := k.Run()
		if stop {
			var dl *DeadlockError
			if !errors.As(err, &dl) || !reflect.DeepEqual(got, []any{"c"}) {
				t.Fatalf("stopped run: err %v, got %v; want a deadlock after [c]", err, got)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want := [][]any{{"a", "b", "c"}, {"a", "b"}, {"a"}}
		if !reflect.DeepEqual(offered, want) || !reflect.DeepEqual(got, []any{"c", "b", "a"}) {
			t.Fatalf("offered %v and received %v, want %v and [c b a]", offered, got, want)
		}
		// A delivery picked after a later one waited in time: the clock
		// never runs back.
		if !reflect.DeepEqual(at, []Time{3 * Microsecond, 3 * Microsecond, 3 * Microsecond}) {
			t.Fatalf("receive clocks %v, want all 3us", at)
		}
	}
}
