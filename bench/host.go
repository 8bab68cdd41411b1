package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/transport"
)

// hop is one router of a chain. transport.Daemon is the real one; tracedHop
// (tracedhop.go) is the bench-owned copy of its loop with a span around each
// layer call. The workloads drive either through this interface and through
// loopback TCP, so both see identical traffic.
type hop interface {
	Inspect(fn func(r *core.Router))
	BecomeRP(info copss.RPInfo) error
	ConnectRouter(addr string) error
}

// rpName and the world below are shared by every live workload: the paper's
// 5×5 map, one RP serving every region.
const rpName = "/rp"

var regions = []string{"1", "2", "3", "4", "5"}

// zoneLeaves returns the 25 zone CDs /r/z of the 5×5 world.
func zoneLeaves() []cd.CD {
	var out []cd.CD
	for _, r := range regions {
		for _, z := range regions {
			out = append(out, cd.MustNew(r, z))
		}
	}
	return out
}

// chain is a line of hops over loopback TCP, hop i dialing hop i-1, with one
// RP. faces counts the faces each hop should have, so attaching a client can
// wait for exactly its own face to appear.
type chain struct {
	hops  []hop
	addrs []string
	faces []int
	rp    int // index of the hop that is the RP
	stop  func()

	connSetup []float64 // ms, Dial → face visible, one per attached client
}

const probeTimeout = 10 * time.Second

// waitFor polls cond until it holds. Readiness is always an observed state
// of the routers (face count, ST or RP-table size), never a fixed sleep.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(probeTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// probe evaluates fn on hop i's event loop.
func (c *chain) probe(i int, fn func(r *core.Router) bool) bool {
	var ok bool
	c.hops[i].Inspect(func(r *core.Router) { ok = fn(r) })
	return ok
}

func (c *chain) waitFaces(i int) error {
	want := c.faces[i]
	return waitFor(fmt.Sprintf("hop %d to have %d faces", i, want), func() bool {
		return c.probe(i, func(r *core.Router) bool { return len(r.Faces()) >= want })
	})
}

// startDaemons runs n real daemons, each on its own loopback listener.
func startDaemons(n int) (hops []hop, addrs []string, stop func(), err error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	stop = func() {
		cancel()
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		d := transport.NewDaemon(fmt.Sprintf("R%d", i))
		d.SetLogger(func(string, ...interface{}) {})
		addr, lerr := d.Listen("127.0.0.1:0")
		if lerr != nil {
			stop()
			return nil, nil, nil, lerr
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Run(ctx) //nolint:errcheck // returns ctx.Err() once stop cancels it
		}()
		hops = append(hops, d)
		addrs = append(addrs, addr.String())
	}
	return hops, addrs, stop, nil
}

// startChain runs `hops` routers (real daemons, or traced hops when traced is
// set) linked in a line, makes the middle one the RP for the whole world and
// waits until every hop knows the route to it.
func startChain(hops int, traced bool) (*chain, []*tracedHop, error) {
	c := &chain{faces: make([]int, hops), rp: hops / 2}
	var ths []*tracedHop
	var err error
	if traced {
		c.hops, ths, c.addrs, c.stop, err = startTracedHops(hops)
	} else {
		c.hops, c.addrs, c.stop, err = startDaemons(hops)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := c.link(); err != nil {
		c.stop()
		return nil, nil, err
	}
	return c, ths, nil
}

func (c *chain) link() error {
	for i := 1; i < len(c.hops); i++ {
		if err := c.hops[i].ConnectRouter(c.addrs[i-1]); err != nil {
			return err
		}
		c.faces[i]++
		c.faces[i-1]++
		if err := c.waitFaces(i); err != nil {
			return err
		}
		if err := c.waitFaces(i - 1); err != nil {
			return err
		}
	}
	info := copss.RPInfo{Name: rpName, Prefixes: copss.PartitionPrefixes(regions), Seq: 1}
	if err := c.hops[c.rp].BecomeRP(info); err != nil {
		return err
	}
	for i := range c.hops {
		i := i
		err := waitFor(fmt.Sprintf("hop %d to learn the RP", i), func() bool {
			return c.probe(i, func(r *core.Router) bool {
				if r.RPTable().Len() != 1 {
					return false
				}
				_, _, routed := r.NDN().FIB().Lookup(rpName)
				return routed || i == c.rp
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// dial attaches a raw client connection to hop i (publishers that write burst
// frames and subscribers that count them need transport.Conn itself).
func (c *chain) dial(i int, name string) (*transport.Conn, error) {
	t0 := time.Now()
	conn, err := transport.Dial(c.addrs[i], transport.PeerClient, name, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return conn, c.attached(i, t0, conn)
}

// client attaches a transport.Client to hop i.
func (c *chain) client(i int, name string) (*transport.Client, error) {
	t0 := time.Now()
	cl, err := transport.NewClient(name, c.addrs[i])
	if err != nil {
		return nil, err
	}
	return cl, c.attached(i, t0, cl)
}

// attached waits until hop i has registered the face dialled at t0 and
// records how long attaching took.
func (c *chain) attached(i int, t0 time.Time, conn io.Closer) error {
	c.faces[i]++
	if err := c.waitFaces(i); err != nil {
		conn.Close() //nolint:errcheck // already failing
		return err
	}
	c.connSetup = append(c.connSetup, float64(time.Since(t0))/1e6)
	return nil
}

// waitST waits until hop i's subscription table holds at least n entries.
func (c *chain) waitST(i, n int) error {
	return waitFor(fmt.Sprintf("hop %d to hold %d subscriptions", i, n), func() bool {
		return c.probe(i, func(r *core.Router) bool { return r.ST().Len() >= n })
	})
}

// routerStats sums core.Router counters over the chain.
func (c *chain) routerStats() core.Stats {
	var sum core.Stats
	for i := range c.hops {
		c.hops[i].Inspect(func(r *core.Router) {
			s := r.Stats()
			sum.MulticastIn += s.MulticastIn
			sum.MulticastOut += s.MulticastOut
			sum.Dropped += s.Dropped
			sum.Retransmissions += s.Retransmissions
		})
	}
	return sum
}
