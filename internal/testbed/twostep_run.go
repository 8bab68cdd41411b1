package testbed

import (
	"fmt"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/stats"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// DeliveryModeResult is one (mode, payload size) cell of the delivery-mode
// ablation.
type DeliveryModeResult struct {
	Mode          core.PublishMode
	PayloadBytes  int
	MeanLatencyMs float64
	NetworkBytes  float64
	Deliveries    int
}

// RunDeliveryComparison quantifies the paper's one-step-vs-two-step choice:
// a publisher pushes updates of the given payload sizes to `subscribers`
// players, of which only wantFraction actually consume the content. One-step
// pushes full payloads to everyone; two-step multicasts snippets and the
// interested subscribers pull the payload (PIT-aggregated and cached along
// the way).
func RunDeliveryComparison(payloadSizes []int, subscribers int, wantFraction float64, publishes int) ([]DeliveryModeResult, error) {
	var out []DeliveryModeResult
	for _, size := range payloadSizes {
		for _, mode := range []core.PublishMode{core.OneStep, core.TwoStep} {
			res, err := runDeliveryMode(mode, size, subscribers, wantFraction, publishes)
			if err != nil {
				return nil, err
			}
			out = append(out, *res)
		}
	}
	return out, nil
}

func runDeliveryMode(mode core.PublishMode, payload, subscribers int, wantFraction float64, publishes int) (*DeliveryModeResult, error) {
	s, err := PaperSetup()
	if err != nil {
		return nil, err
	}
	tb := New()
	rn, err := buildRouterNet(tb, s)
	if err != nil {
		return nil, err
	}
	var ann ndn.SliceSink
	if err := rn.router("R1").BecomeRPTo(copss.RPInfo{
		Name:     "/rp1",
		Prefixes: copss.PartitionPrefixes(s.World.Map.RegionNames()),
		Seq:      1,
	}, &ann); err != nil {
		return nil, err
	}
	tb.Schedule(tb.Now().Add(time.Millisecond), func(now time.Time) { tb.Emit(now, "R1", ann.Actions) })

	accs := make([]clientAcc, subscribers)
	topic := cd.MustParse("/1/1")

	for i := 0; i < subscribers; i++ {
		name := fmt.Sprintf("sub%d", i)
		wants := float64(i) < wantFraction*float64(subscribers)
		pending := make(map[string]int64) // content name → publish time
		acc := &accs[i]
		tb.AddNode(name, func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
			if contentName, ok := core.ParseSnippet(pkt); ok {
				if !wants {
					return
				}
				pending[contentName] = pkt.SentAt
				sink.Emit(ndn.Action{Face: 0, Packet: &wire.Packet{Type: wire.TypeInterest, Name: contentName}})
				return
			}
			switch pkt.Type {
			case wire.TypeMulticast:
				if pkt.Origin == core.FlushOrigin {
					return
				}
				if wants { // one-step: everyone receives, the interested consume
					acc.lat.Add(float64(now.UnixNano()-pkt.SentAt) / 1e6)
				}
				acc.deliveries++
			case wire.TypeData:
				if sentAt, ok := pending[pkt.Name]; ok {
					acc.lat.Add(float64(now.UnixNano()-sentAt) / 1e6)
					delete(pending, pkt.Name)
					acc.deliveries++
				}
			}
		}, func(*wire.Packet) time.Duration { return s.Costs.HostProc }, 0)
		router := rn.names[1+i%(len(rn.names)-1)] // spread over R2..R6
		if _, err := rn.attachClient(router, name, core.FaceClient, s.LinkDelay); err != nil {
			return nil, err
		}
		tb.Schedule(tb.Now().Add(50*time.Millisecond), func(now time.Time) {
			tb.Emit(now, name, []ndn.Action{{Face: 0, Packet: &wire.Packet{
				Type: wire.TypeSubscribe, CDs: []cd.CD{topic},
			}}})
		})
	}

	tb.AddHost("pub", nil, func(*wire.Packet) time.Duration { return s.Costs.HostProc })
	if _, err := rn.attachClient("R4", "pub", core.FaceClient, s.LinkDelay); err != nil {
		return nil, err
	}
	start := tb.Now().Add(200 * time.Millisecond)
	for k := 1; k <= publishes; k++ {
		seq := uint64(k)
		tb.Schedule(start.Add(time.Duration(k)*50*time.Millisecond), func(now time.Time) {
			pkt := &wire.Packet{
				Type:    wire.TypeMulticast,
				CDs:     []cd.CD{topic},
				Origin:  "pub",
				Seq:     seq,
				Payload: make([]byte, payload),
				SentAt:  now.UnixNano(),
			}
			if mode == core.TwoStep {
				pkt.Name = core.TwoStepRequest
			}
			tb.Emit(now, "pub", []ndn.Action{{Face: 0, Packet: pkt}})
		})
	}
	deadline := start.Add(time.Duration(publishes)*50*time.Millisecond + 10*time.Second)
	if err := tb.Run(deadline, 0); err != nil {
		return nil, err
	}
	res := &MicroResult{Latency: &stats.Sample{}}
	mergeAccs(res, accs)
	_, bytes := tb.Stats()
	return &DeliveryModeResult{
		Mode:          mode,
		PayloadBytes:  payload,
		MeanLatencyMs: res.Latency.Mean(),
		NetworkBytes:  bytes,
		Deliveries:    res.Deliveries,
	}, nil
}
