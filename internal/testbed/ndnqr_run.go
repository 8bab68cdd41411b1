package testbed

import (
	"encoding/binary"
	"strconv"
	"strings"
	"time"

	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/stats"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// The NDN query/response solution's parameters (Section V-A).
const (
	// ndnPipeline is the number of outstanding Interests a consumer keeps
	// per producer: "a set of at most N (N = 3 ...) queries outstanding at
	// any time".
	ndnPipeline = 3
	// ndnAccumulate is the producer's update-accumulation interval t: "we
	// send a response every t ms", t = 50.
	ndnAccumulate = 50 * time.Millisecond
	// ndnRefresh is the consumer's Interest refresh period, the PIT lifetime
	// of 4 s.
	ndnRefresh = 4 * time.Second
)

// ndnName builds the content name for producer pi's batch number seq. It is
// called per Interest, so it assembles the name in one allocation instead of
// going through Sprintf.
func ndnName(pi int, seq uint64) string {
	var buf [48]byte
	b := append(buf[:0], "/ndn/player"...)
	b = strconv.AppendInt(b, int64(pi), 10)
	b = append(b, "/u"...)
	b = strconv.AppendUint(b, seq, 10)
	return string(b)
}

// ndnPrefix is the routable prefix of producer pi.
func ndnPrefix(pi int) string { return "/ndn/" + clientName(pi) }

// parseNDNName splits "/ndn/player<peer>/u<seq>" without allocating; ok is
// false for any other shape.
func parseNDNName(name string) (peer int, seq uint64, ok bool) {
	const pfx = "/ndn/player"
	if !strings.HasPrefix(name, pfx) {
		return 0, 0, false
	}
	rest := name[len(pfx):]
	slash := strings.IndexByte(rest, '/')
	if slash <= 0 || !strings.HasPrefix(rest[slash:], "/u") {
		return 0, 0, false
	}
	peer, err := strconv.Atoi(rest[:slash])
	if err != nil {
		return 0, 0, false
	}
	seq, err = strconv.ParseUint(rest[slash+2:], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return peer, seq, true
}

// batchRecord is one update inside a producer's Data batch.
type batchRecord struct {
	sentAt int64
	size   int
}

// encodeBatch packs update records with their payload padding so the Data
// packet has a realistic size.
func encodeBatch(records []batchRecord) []byte {
	var out []byte
	for _, r := range records {
		var hdr [12]byte
		binary.BigEndian.PutUint64(hdr[0:], uint64(r.sentAt))
		binary.BigEndian.PutUint32(hdr[8:], uint32(r.size))
		out = append(out, hdr[:]...)
		out = append(out, make([]byte, r.size)...)
	}
	return out
}

// decodeBatch recovers the records.
func decodeBatch(data []byte) []batchRecord {
	var out []batchRecord
	for len(data) >= 12 {
		sentAt := int64(binary.BigEndian.Uint64(data[0:]))
		size := int(binary.BigEndian.Uint32(data[8:]))
		data = data[12:]
		if size > len(data) {
			break
		}
		data = data[size:]
		out = append(out, batchRecord{sentAt: sentAt, size: size})
	}
	return out
}

// ndnPlayer is the combined consumer/producer state of one player in the
// NDN query/response solution.
type ndnPlayer struct {
	idx  int
	name string

	// Producer side.
	buffer     []batchRecord
	pending    map[uint64]bool
	nextAnswer uint64

	// Consumer side, per peer index.
	answered  map[int]uint64
	expressed map[int]uint64
	peers     []int

	// Per-player delivery accumulation (merged in player order after the
	// run; player nodes on different shards run concurrently).
	acc clientAcc
}

// RunNDN executes the microbenchmark on the NDN query/response baseline:
// pipelined Interests per peer, update accumulation at producers, Interest
// refresh on PIT lifetime, and in-network caching/aggregation via the real
// NDN engines in the routers.
func RunNDN(s *Setup) (*MicroResult, error) {
	tb := New(WithWorkers(s.Workers))
	res := &MicroResult{Latency: &stats.Sample{}}

	rn, err := buildRouterNet(tb, s)
	if err != nil {
		return nil, err
	}
	attach := attachment(len(s.Trace.Players))
	nPlayers := len(s.Trace.Players)

	// "Every player queries all the possible players": each polls every
	// other player, visible or not.
	players := make([]*ndnPlayer, nPlayers)
	for pi := 0; pi < nPlayers; pi++ {
		p := &ndnPlayer{
			idx:        pi,
			name:       clientName(pi),
			pending:    make(map[uint64]bool),
			nextAnswer: 1,
			answered:   make(map[int]uint64),
			expressed:  make(map[int]uint64),
		}
		for j := 0; j < nPlayers; j++ {
			if j != pi {
				p.peers = append(p.peers, j)
			}
		}
		players[pi] = p
	}

	// express emits an Interest from player pi for (peer, seq). Emit iterates
	// the action slice synchronously without retaining it, so one scratch
	// slice serves every Interest; only the packet itself is allocated.
	exprScratch := make([]ndn.Action, 1)
	express := func(now time.Time, pi int, peer int, seq uint64) {
		exprScratch[0] = ndn.Action{Face: 0, Packet: &wire.Packet{
			Type: wire.TypeInterest,
			Name: ndnName(peer, seq),
		}}
		tb.Emit(now, players[pi].name, exprScratch)
	}

	// Player endpoints: handle incoming Interests (producer) and Data
	// (consumer).
	for pi := 0; pi < nPlayers; pi++ {
		p := players[pi]
		handler := func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
			switch pkt.Type {
			case wire.TypeInterest:
				peer, seq, ok := parseNDNName(pkt.Name)
				if !ok || peer != p.idx {
					return
				}
				if seq < p.nextAnswer {
					// Stale query (the consumer lost our batch and caches
					// have aged out): answer with an empty batch so the
					// consumer advances.
					sink.Emit(ndn.Action{Face: 0, Packet: &wire.Packet{
						Type: wire.TypeData,
						Name: pkt.Name,
					}})
					return
				}
				p.pending[seq] = true
			case wire.TypeData:
				peer, seq, ok := parseNDNName(pkt.Name)
				if !ok || peer < 0 || peer >= nPlayers || seq <= p.answered[peer] {
					return
				}
				for _, rec := range decodeBatch(pkt.Payload) {
					p.acc.lat.Add(float64(now.UnixNano()-rec.sentAt) / 1e6)
					p.acc.deliveries++
				}
				p.answered[peer] = seq
				// Refill the pipeline.
				for p.expressed[peer] < seq+ndnPipeline {
					p.expressed[peer]++
					sink.Emit(ndn.Action{Face: 0, Packet: &wire.Packet{
						Type: wire.TypeInterest,
						Name: ndnName(peer, p.expressed[peer]),
					}})
				}
			}
		}
		tb.AddNode(p.name, handler, func(*wire.Packet) time.Duration { return s.Costs.HostProc }, 0)
		clientFace, err := rn.attachClient(attach[pi], p.name, core.FaceClient, s.LinkDelay)
		if err != nil {
			return nil, err
		}
		// FIB: the attachment router reaches the producer on its client
		// face; every other router routes the prefix toward it.
		if err := rn.routePrefix(ndnPrefix(pi), rn.id(attach[pi]), clientFace); err != nil {
			return nil, err
		}
	}

	t0 := tb.Now()
	start := t0.Add(s.Warmup)
	end := start.Add(s.Trace.Duration)

	// PIT housekeeping on every router.
	for _, r := range rn.routers {
		var expire func(now time.Time)
		expire = func(now time.Time) {
			r.NDN().Expire(now)
			if now.Before(end.Add(s.Drain)) {
				tb.Schedule(now.Add(time.Second), expire)
			}
		}
		tb.Schedule(t0.Add(time.Second), expire)
	}

	// Consumers: initial pipelines, staggered to avoid a synchronized burst.
	for pi := 0; pi < nPlayers; pi++ {
		p := players[pi]
		at := start.Add(time.Duration(pi) * time.Millisecond)
		tb.Schedule(at, func(now time.Time) {
			for _, peer := range p.peers {
				for k := 1; k <= ndnPipeline; k++ {
					p.expressed[peer] = uint64(k)
					express(now, p.idx, peer, uint64(k))
				}
			}
		})
		// Periodic refresh of unanswered Interests.
		var refresh func(now time.Time)
		refresh = func(now time.Time) {
			for _, peer := range p.peers {
				for k := p.answered[peer] + 1; k <= p.expressed[peer]; k++ {
					express(now, p.idx, peer, k)
				}
			}
			if now.Before(end) {
				tb.Schedule(now.Add(ndnRefresh), refresh)
			}
		}
		tb.Schedule(at.Add(ndnRefresh), refresh)

		// Producer accumulation tick.
		var tick func(now time.Time)
		tick = func(now time.Time) {
			if len(p.buffer) > 0 && len(p.pending) > 0 {
				low := uint64(0)
				for k := range p.pending {
					if low == 0 || k < low {
						low = k
					}
				}
				delete(p.pending, low)
				if low >= p.nextAnswer {
					p.nextAnswer = low + 1
				}
				payload := encodeBatch(p.buffer)
				p.buffer = nil
				tb.Emit(now, p.name, []ndn.Action{{Face: 0, Packet: &wire.Packet{
					Type:    wire.TypeData,
					Name:    ndnName(p.idx, low),
					Payload: payload,
				}}})
			}
			if now.Before(end.Add(s.Drain / 2)) {
				tb.Schedule(now.Add(ndnAccumulate), tick)
			}
		}
		tb.Schedule(start.Add(time.Duration(pi)*time.Millisecond), tick)
	}

	// Publish events buffer updates at the producer.
	for _, u := range s.Trace.Updates {
		u := u
		tb.Schedule(start.Add(u.At), func(now time.Time) {
			res.Published++
			p := players[u.Player]
			p.buffer = append(p.buffer, batchRecord{sentAt: now.UnixNano(), size: u.Size})
		})
	}

	if err := tb.Run(end.Add(s.Drain), 0); err != nil {
		return nil, err
	}
	for _, p := range players {
		res.Latency.Merge(&p.acc.lat)
		res.Deliveries += p.acc.deliveries
	}
	res.PacketEvents, res.Bytes = tb.Stats()
	return res, nil
}
