// Package probe is the typed observation layer between instrumented
// models and their consumers. A model (e.g. the AHB bus) samples itself
// once per settled cycle — driven by the kernel's sim.CycleObserver
// stream — and publishes one snapshot record per cycle through a Hub.
// Analyzers, protocol monitors, activity recorders and waveform dumpers
// attach to the hub as Observers and all consume the same event stream
// instead of reaching into model internals.
//
// This makes the paper's global/local/private integration distinction
// architectural: every integration style is just a different observer of
// the same settled-cycle record stream.
package probe

// Observer consumes one settled-cycle snapshot record of type T.
type Observer[T any] interface {
	ObserveCycle(rec T)
}

// Func adapts a plain function to an Observer.
type Func[T any] func(T)

// ObserveCycle implements Observer.
func (f Func[T]) ObserveCycle(rec T) { f(rec) }

// Hub fans settled-cycle records out to its observers in attach order.
// The zero value is ready to use. A Hub is owned by exactly one model and
// published from the simulation kernel's settled-timestep probe, so it
// needs no locking: all dispatch happens on the kernel's goroutine.
type Hub[T any] struct {
	obs []Observer[T]
}

// Attach registers an observer; it will see every record published after
// this call, in attach order relative to other observers.
func (h *Hub[T]) Attach(o Observer[T]) {
	h.obs = append(h.obs, o)
}

// AttachFunc registers a plain function as an observer.
func (h *Hub[T]) AttachFunc(fn func(T)) {
	h.Attach(Func[T](fn))
}

// Publish delivers one record to every attached observer.
func (h *Hub[T]) Publish(rec T) {
	for _, o := range h.obs {
		o.ObserveCycle(rec)
	}
}

// BatchObserver is an Observer that can additionally consume a whole
// slice of records in one call. Publishers that buffer records (e.g. the
// power analyzer's sample stream) hand the batch over directly, saving
// one dynamic dispatch per record; the records arrive in the same order
// Publish would have delivered them.
type BatchObserver[T any] interface {
	Observer[T]
	ObserveBatch(recs []T)
}

// PublishBatch delivers a slice of in-order records to every attached
// observer: batch-aware observers receive the slice in one ObserveBatch
// call, the rest see one ObserveCycle per record. The slice is only
// borrowed for the duration of the call — observers must not retain it.
func (h *Hub[T]) PublishBatch(recs []T) {
	for _, o := range h.obs {
		if bo, ok := o.(BatchObserver[T]); ok {
			bo.ObserveBatch(recs)
			continue
		}
		for i := range recs {
			o.ObserveCycle(recs[i])
		}
	}
}

// Len returns the number of attached observers.
func (h *Hub[T]) Len() int { return len(h.obs) }
