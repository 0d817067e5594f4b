package kvstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/value"
	"repro/internal/vfs"
)

// snapshotState captures every key's value, lapsed or not, from a store.
func snapshotState(s *Store) map[string]model.State {
	out := map[string]model.State{}
	s.Tree().Scan(nil, func(k []byte, v *value.Value) bool {
		out[string(k)] = stateOf(v)
		return true
	})
	return out
}

// treeShape is the shape of s's tree, which must be quiescent; it fails t if
// the walk finds one of the tree's invariants broken.
func treeShape(t *testing.T, s *Store) core.ShapeStats {
	t.Helper()
	shape, err := s.Tree().Shape()
	if err != nil {
		t.Fatal(err)
	}
	return shape
}

func diffStates(t *testing.T, label string, want, got map[string]model.State) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d keys, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: key %q missing", label, k)
		}
		if !g.Equal(w) {
			t.Fatalf("%s: key %q = %v, want %v", label, k, g, w)
		}
	}
}

// checkModels holds got, a store's every key, to the union of models that
// each computed the keys of one writer.
func checkModels(t *testing.T, label string, models []*model.Model, got map[string]model.State) {
	t.Helper()
	n := 0
	for _, m := range models {
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		for _, k := range m.Written() {
			want, ok := m.Get(k, 0)
			if g, gok := got[k]; gok != ok || ok && !g.Equal(want) {
				t.Fatalf("%s: key %q got %v (present %v), the model %v (present %v)", label, k, g, gok, want, ok)
			}
		}
		n += m.Len()
	}
	if len(got) != n {
		t.Fatalf("%s: %d keys, the models hold %d", label, len(got), n)
	}
}

// TestMultiPartEqualsSinglePartQuiesced: on a quiesced store, a T-part
// checkpoint and a T=1 checkpoint recover byte-identical state — same
// keys, same column values, same versions.
func TestMultiPartEqualsSinglePartQuiesced(t *testing.T) {
	mem := vfs.NewMemFS()
	cfg := Config{Dir: tortureDir, Workers: 2, FS: mem}
	s := openAt(t, cfg, clock.NewFake())
	ss := sessions(s, 2)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("key-%06d", rng.Intn(3000))
		if i%5 == 0 {
			key = fmt.Sprintf("deep/layered/key/prefix-%06d", rng.Intn(1000))
		}
		puts := []value.ColPut{{Col: rng.Intn(3), Data: []byte(fmt.Sprintf("v%d", i))}}
		ss[i%2].Put([]byte(key), puts)
	}
	want := snapshotState(s)

	if _, n, err := s.CheckpointN(4); err != nil || n != len(want) {
		t.Fatalf("4-part checkpoint: n=%d err=%v (want %d entries)", n, err, len(want))
	}

	// Recover from the 4-part checkpoint (plus empty logs).
	r1 := restart(t, s, cfg)
	diffStates(t, "recovered from 4 parts", want, snapshotState(r1))

	// Checkpoint the recovered state with a single part and recover again.
	if _, n, err := r1.CheckpointN(1); err != nil || n != len(want) {
		t.Fatalf("1-part checkpoint: n=%d err=%v", n, err)
	}
	r2 := restart(t, r1, cfg)
	diffStates(t, "recovered from 1 part", want, snapshotState(r2))
}

// TestMultiPartCheckpointUnderConcurrentWrites: the fuzzy multi-part scan
// runs while writers mutate the tree; checkpoint + log replay must still
// recover exactly the final pre-shutdown state, for T=4 and T=1 alike.
func TestMultiPartCheckpointUnderConcurrentWrites(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			mem := vfs.NewMemFS()
			cfg := Config{Dir: tortureDir, Workers: 3, FS: mem}
			s := openAt(t, cfg, clock.NewFake())
			ss := sessions(s, 3)
			for i := 0; i < 2000; i++ {
				ss[i%3].PutSimple([]byte(fmt.Sprintf("pre-%05d", i)), []byte("seed"))
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						k := []byte(fmt.Sprintf("pre-%05d", rng.Intn(2500)))
						if i%7 == 0 {
							ss[w].Remove(k)
						} else {
							ss[w].PutSimple(k, []byte(fmt.Sprintf("w%d-%d", w, i)))
						}
					}
				}(w)
			}
			// Two fuzzy checkpoints while the writers hammer.
			for c := 0; c < 2; c++ {
				if _, _, err := s.CheckpointN(parts); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			want := snapshotState(s)
			r := restart(t, s, cfg)
			diffStates(t, "fuzzy checkpoint + log replay", want, snapshotState(r))
		})
	}
}

// TestFuzzyCheckpointGroundTruth partitions the key space per worker so
// every key has exactly one writer, making each key's final state what the
// model computes from its writer's operations — an independent ground truth the
// live tree and the recovered tree are both checked against, with fuzzy
// multi-part checkpoints racing the writers. This caught two real bugs:
// core.remove not dirtying the node version (scans emitted removed keys
// into checkpoints), and replay resurrecting puts whose superseding
// remove's log record had been reclaimed by a checkpoint.
func TestFuzzyCheckpointGroundTruth(t *testing.T) {
	for round := 0; round < 5; round++ {
		mem := vfs.NewMemFS()
		cfg := Config{Dir: tortureDir, Workers: 3, FS: mem}
		s := openAt(t, cfg, clock.NewFake())
		ss := sessions(s, 3)
		// truth[w] is the model of the keys worker w writes below.
		truth := []*model.Model{model.New(), model.New(), model.New()}
		for i := 0; i < 2000; i++ {
			k := fmt.Sprintf("pre-%05d", i)
			truth[i/1000].Put(k, ss[i%3].PutSimple([]byte(k), []byte("seed")), 0, model.ColPut{Data: []byte("seed")})
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*3 + w)))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := fmt.Sprintf("pre-%05d", w*1000+rng.Intn(800))
					if i%7 == 0 {
						if got, want := ss[w].Remove([]byte(k)), truth[w].Remove(k, 0); got != want {
							t.Errorf("Remove(%q) reported %v, the model %v", k, got, want)
						}
					} else {
						d := []byte(fmt.Sprintf("w%d-%d", w, i))
						truth[w].Put(k, ss[w].PutSimple([]byte(k), d), 0, model.ColPut{Data: d})
					}
				}
			}(w)
		}
		for c := 0; c < 2; c++ {
			if _, _, err := s.CheckpointN(4); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()

		checkModels(t, fmt.Sprintf("round %d live", round), truth, snapshotState(s))
		r := restart(t, s, cfg)
		checkModels(t, fmt.Sprintf("round %d recovered", round), truth, snapshotState(r))
		r.Close()
	}
}

// TestPartitionBoundsDisjointCover: the sampled range bounds are strictly
// increasing, so the part scans are disjoint and cover the key space, and
// a checkpoint written that way holds each key exactly once.
func TestPartitionBoundsDisjointCover(t *testing.T) {
	mem := vfs.NewMemFS()
	s := openAt(t, Config{Dir: tortureDir, Workers: 1, FS: mem}, clock.NewFake())
	ss := sessions(s, 1)[0]
	for i := 0; i < 4096; i++ {
		ss.PutSimple([]byte(fmt.Sprintf("%05d", i)), []byte("x"))
	}
	bounds := s.partitionBounds(8)
	if len(bounds) != 7 {
		t.Fatalf("got %d bounds, want 7", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if string(bounds[i-1]) >= string(bounds[i]) {
			t.Fatalf("bounds not strictly increasing: %q >= %q", bounds[i-1], bounds[i])
		}
	}
	if _, n, err := s.CheckpointN(8); err != nil || n != 4096 {
		t.Fatalf("checkpoint wrote %d entries, err %v; want 4096 (each key exactly once)", n, err)
	}
	r := restart(t, s, Config{Dir: tortureDir, Workers: 1, FS: mem})
	if r.Len() != 4096 {
		t.Fatalf("recovered %d keys, want 4096", r.Len())
	}
}

// TestTwigsSurviveRestart is the restart test for keys that share twigs: a
// two-part checkpoint taken with twigs in the tree, then a log tail written
// by two workers that overwrites twig keys column by column, removes some —
// one twig down to a key, one to nothing — starts new twigs and gives one a
// fifth key, so that replay turns a twig the checkpoint loaded into a layer.
// The reopened store holds every key at its exact version and bytes, with
// no broken chain, and the keys are in twigs again.
func TestTwigsSurviveRestart(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	s := openAt(t, chainCfg(mem), clock.NewFake())
	sess := [2]*Session{s.Session(0), s.Session(1)}
	tails := []string{"1", "22", "3-and-a-remainder-past-the-twig", "4\x00", "5"}
	key := func(g, m int) []byte { return []byte(fmt.Sprintf("twig%04d%s", g, tails[m])) }
	const groups = 24
	for g := 0; g < groups; g++ {
		for m := 0; m < 2+g%3; m++ { // two to four keys to a slice
			sess[(g+m)%2].Put(key(g, m), []value.ColPut{{Col: 0, Data: key(g, m)}, {Col: 1, Data: []byte("loaded")}})
		}
	}
	sess[0].Remove(key(3, 0))
	if tw := treeShape(t, s).Layers[1].Twigs; tw != groups {
		t.Fatalf("%d twigs before the checkpoint, want %d", tw, groups)
	}
	if _, _, err := s.CheckpointN(2); err != nil {
		t.Fatal(err)
	}

	layers := s.Stats().LayerCreations
	for g := 0; g < groups; g++ {
		for m := 0; m < 2+g%3; m++ {
			if g == 3 && m == 0 {
				continue
			}
			// The other worker's partial-column put: a handoff, then deltas.
			w := (g + m + 1) % 2
			sess[w].Put(key(g, m), []value.ColPut{{Col: 1, Data: []byte(fmt.Sprintf("tail%d.%d", g, m))}})
			sess[w].Put(key(g, m), []value.ColPut{{Col: 2, Data: []byte("c2")}})
		}
	}
	sess[1].Remove(key(4, 1)) // a twig of three down to two,
	sess[0].Remove(key(6, 0)) // one of two down to one,
	sess[1].Remove(key(9, 0)) // and one emptied: its slot goes too
	sess[0].Remove(key(9, 1))
	sess[0].Put(key(4, 1), []value.ColPut{{Col: 0, Data: []byte("back")}})
	for m := 0; m < len(tails); m++ { // a twig of four gets its fifth key
		sess[m%2].Put(key(5, m), []value.ColPut{{Col: 0, Data: []byte("promoted")}})
	}
	if s.Stats().LayerCreations != layers+1 {
		t.Fatalf("the log tail promoted %d twigs, want 1", s.Stats().LayerCreations-layers)
	}
	for g := groups; g < groups+4; g++ { // twigs the checkpoint never saw
		sess[g%2].Put(key(g, 0), []value.ColPut{{Col: 0, Data: []byte("new")}})
		sess[(g+1)%2].Put(key(g, 2), []value.ColPut{{Col: 0, Data: []byte("new")}})
	}
	want := snapshotState(s)

	r := restart(t, s, chainCfg(mem))
	if st := r.RecoveryStats(); st.BrokenChains != 0 || st.MissingLogs != 0 {
		t.Fatalf("recovery stats %+v, want no broken chain and no missing log", st)
	}
	diffStates(t, "after the restart", want, snapshotState(r))
	// Less the emptied twig, the promoted one, and the two left with a single
	// key — group 3's before the checkpoint, group 6's in the tail — which a
	// restore that loads each key's final value once holds as plain suffix
	// keys.
	shape := treeShape(t, r)
	if l := shape.Layers[1]; l.Twigs != groups+4-4 || l.BorderNodes != 1 {
		t.Fatalf("the recovered tree's layer 1: %+v, want %d twigs and one promoted layer", l, groups+4-4)
	}
}

// TestRestoredTreeIsPacked takes 2- and 4-part checkpoints of 250 000
// decimal keys put in random order and reopens the store from each, first
// from the checkpoint alone and then with a log tail of 25 000 fresh random
// keys put after it. A restore loads each key's final value once, in key
// order: a range is restored as an ascending run through borders that have a
// successor — the next range's — and the split that continues a run cuts
// after its new key, so the restored layer-0 borders are packed to at least
// 14.5 of their 15 slots where the random load left them about 10.6 full,
// tail or no tail. The keys and their versions are the store's as it was
// closed.
func TestRestoredTreeIsPacked(t *testing.T) {
	if testing.Short() {
		t.Skip("puts, checkpoints and restores 250 000 keys")
	}
	const keys = 250_000
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dir: "d", FS: mem, Workers: 1}
	s := openAt(t, cfg, clock.NewFake())
	rng := rand.New(rand.NewSource(1))
	put := func(n int) {
		ss := s.Session(0)
		for n += s.Len(); s.Len() < n; {
			ss.PutSimple([]byte(fmt.Sprint(rng.Int63n(1<<31))), []byte("8 bytes."))
		}
	}
	reopen := func(label string) {
		want := snapshotState(s)
		s = restart(t, s, cfg)
		diffStates(t, label, want, snapshotState(s))
		layers := treeShape(t, s).Layers
		if fill := (core.ShapeStats{Layers: layers[:1]}).BorderFill(); fill < 14.5/15 {
			t.Errorf("%s: %d layer-0 borders hold %.2f of 15 slots each, want >= 14.5", label, layers[0].BorderNodes, 15*fill)
		}
	}
	put(keys)
	for _, parts := range []int{2, 4} {
		if _, n, err := s.CheckpointN(parts); err != nil || n != s.Len() {
			t.Fatalf("a %d-part checkpoint wrote %d of %d entries, err %v", parts, n, s.Len(), err)
		}
		reopen(fmt.Sprintf("restored from %d parts", parts))
		put(keys / 10)
		reopen(fmt.Sprintf("restored from %d parts and a log tail", parts))
	}
}
