package probe

import "testing"

type rec struct {
	cycle int
}

func TestHubDispatchOrder(t *testing.T) {
	var h Hub[rec]
	var order []string
	h.AttachFunc(func(r rec) { order = append(order, "a") })
	h.AttachFunc(func(r rec) { order = append(order, "b") })
	h.Attach(Func[rec](func(r rec) { order = append(order, "c") }))
	if h.Len() != 3 {
		t.Fatalf("Len=%d, want 3", h.Len())
	}
	h.Publish(rec{1})
	want := []string{"a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("order=%v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v, want %v (attach order must be preserved)", order, want)
		}
	}
}

func TestHubZeroValueUsable(t *testing.T) {
	var h Hub[int]
	h.Publish(7) // no observers: must not panic
	got := 0
	h.AttachFunc(func(v int) { got = v })
	h.Publish(42)
	if got != 42 {
		t.Errorf("got=%d, want 42", got)
	}
}
