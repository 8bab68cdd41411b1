package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/ndn"
)

// FuzzMigrationHandoff lets the fuzzer drive the randomized handoff
// scenario of TestMigrationFuzzStrictLoss: the seed picks topology and
// placement, prePubs/postPubs shape how much traffic is in flight when the
// RP moves. The paper's loss-freedom invariant must hold for every input:
// each subscriber of the moved region sees every sequence number.
func FuzzMigrationHandoff(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(15))
	f.Add(int64(7003), uint8(1), uint8(1))
	f.Add(int64(42), uint8(30), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, prePubs, postPubs uint8) {
		rnd := rand.New(rand.NewSource(seed))
		n := 5 + rnd.Intn(5)
		fn := newFuzzNet(t, rnd, n)
		h := fn.h

		rpHost := fn.names[rnd.Intn(n)]
		actions, err := becomeRP(h.routers[rpHost], copss.RPInfo{
			Name: "/rpA", Prefixes: copss.PartitionPrefixes([]string{"1", "2"}), Seq: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.enqueueActions(rpHost, actions)
		h.run()

		nSubs := 2 + rnd.Intn(3)
		for i := 0; i < nSubs; i++ {
			h.attach(fmt.Sprintf("s%d", i), fn.names[rnd.Intn(n)], ndn.FaceID(100+i))
			h.fromClient(fmt.Sprintf("s%d", i), sub("/2"))
		}
		h.attach("p", fn.names[rnd.Intn(n)], 200)
		h.run()

		var seq uint64
		pubOne := func() {
			seq++
			h.fromClient("p", mcast("/2/7", "p", seq, "x"))
		}
		for i := 0; i < int(prePubs%32); i++ {
			pubOne()
		}
		for i := 0; i < 8; i++ {
			h.step() // leave packets in flight
		}

		target := fn.names[rnd.Intn(n)]
		if target != rpHost {
			path := fn.pathBetween(rpHost, target)
			actions, err := PrepareHandoff(time.Unix(0, 0), "/rpA", "/rpB", []cd.CD{cd.MustNew("2")}, 2, fn.hops(path))
			if err != nil {
				t.Fatal(err)
			}
			h.enqueueActions(target, actions.FromNew)
			h.enqueueActions(rpHost, actions.FromOld)
		}
		for i := 0; i < int(postPubs%32); i++ {
			pubOne()
			h.step()
			h.step()
		}
		h.run()
		pubOne() // at least one post-quiescence publication
		h.run()

		for i := 0; i < nSubs; i++ {
			name := fmt.Sprintf("s%d", i)
			got := h.clients[name].uniqueSeqs()
			for s := uint64(1); s <= seq; s++ {
				if got[fmt.Sprintf("p/%d", s)] == 0 {
					t.Errorf("%s missed update %d (seed %d)", name, s, seed)
				}
			}
		}
	})
}
