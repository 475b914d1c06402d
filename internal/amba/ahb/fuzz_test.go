package ahb

import (
	"math/rand"
	"testing"
)

// TestRandomScriptsMatchReferenceMemory drives randomized write/read
// scripts through the full bus pipeline and checks every read result
// against a flat oracle memory updated in program order. Because each
// master's sequences are non-interruptible (sticky arbitration) and the
// masters touch disjoint address windows, program order per master is the
// bus commit order for its own data.
func TestRandomScriptsMatchReferenceMemory(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		waits   int
		masters int
	}{
		{"zero-wait-single-master", 0, 1},
		{"two-waits-single-master", 2, 1},
		{"zero-wait-two-masters", 0, 2},
		{"one-wait-two-masters", 1, 2},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(cfg.name))*7 + int64(cfg.waits)))
			ts := newTestSystem(t, cfg.masters, 2, cfg.waits, PolicySticky)

			type expect struct {
				addr uint32
				val  uint32
			}
			oracle := map[uint32]uint32{} // word address -> value
			expected := make([][]expect, cfg.masters)

			for m := 0; m < cfg.masters; m++ {
				// Each master owns a disjoint 2 KB window.
				base := uint32(m) * 0x800
				written := map[uint32]uint32{}
				var ops []Op
				for i := 0; i < 60; i++ {
					addr := base + uint32(rng.Intn(0x200))&^3
					if rng.Intn(2) == 0 || len(written) == 0 {
						beats := []int{1, 1, 1, 4}[rng.Intn(4)]
						if BeatsUntilKB(addr, Size32) < beats {
							beats = 1
						}
						data := make([]uint32, beats)
						a := addr
						for b := range data {
							data[b] = rng.Uint32()
							written[a] = data[b]
							oracle[a>>2] = data[b]
							a += 4
						}
						ops = append(ops, Op{Kind: OpWrite, Addr: addr, Data: data})
					} else {
						// Read an address this master has written.
						keys := make([]uint32, 0, len(written))
						for k := range written {
							keys = append(keys, k)
						}
						addr = keys[rng.Intn(len(keys))]
						ops = append(ops, Op{Kind: OpRead, Addr: addr})
						expected[m] = append(expected[m], expect{addr, written[addr]})
					}
				}
				ts.masters[m].Enqueue(Sequence{Ops: ops})
			}

			ts.run(t, 3000)
			for m := 0; m < cfg.masters; m++ {
				if !ts.masters[m].Done() {
					t.Fatalf("master %d did not finish", m)
				}
			}
			ts.checkClean(t)

			// Check every read returned the oracle value.
			for m := 0; m < cfg.masters; m++ {
				exp := expected[m]
				i := 0
				for _, r := range ts.masters[m].Results() {
					if r.Write {
						continue
					}
					if i >= len(exp) {
						t.Fatalf("master %d produced extra read %+v", m, r)
					}
					if r.Addr != exp[i].addr || r.Data != exp[i].val {
						t.Fatalf("master %d read %d: got %#x@%#x, want %#x@%#x",
							m, i, r.Data, r.Addr, exp[i].val, exp[i].addr)
					}
					i++
				}
				if i != len(exp) {
					t.Fatalf("master %d completed %d/%d reads", m, i, len(exp))
				}
			}

			// Final memory state matches the oracle exactly.
			for wordAddr, want := range oracle {
				byteAddr := wordAddr << 2
				slave := ts.slaves[byteAddr>>12]
				if got := slave.Peek(byteAddr & 0xFFF); got != want {
					t.Errorf("mem[%#x]=%#x, want %#x", byteAddr, got, want)
				}
			}
		})
	}
}
