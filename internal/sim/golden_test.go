package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/trace"
)

// replayFingerprint is the comparable outcome of one Runner replay: every
// Result field an experiment reads, floats as their bit patterns.
type replayFingerprint struct {
	Deliveries                            uint64
	MeanBits, BytesBits, P50Bits, P99Bits uint64
	MaxQueueLen, FinalRPs                 int
	SplitPackets                          []int
	RPQueues                              []RPQueueStat
	SeriesHash                            uint64
}

func fingerprintReplay(res *Result) replayFingerprint {
	h := fnv.New64a()
	var buf [4]byte
	for _, series := range [][]float32{res.PerUpdateAvg, res.PerUpdateMin, res.PerUpdateMax} {
		for _, v := range series {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	fp := replayFingerprint{
		Deliveries:  res.Deliveries,
		MeanBits:    math.Float64bits(res.LatencyMeanMs),
		BytesBits:   math.Float64bits(res.Bytes),
		P50Bits:     math.Float64bits(res.LatencyP50Ms),
		P99Bits:     math.Float64bits(res.LatencyP99Ms),
		MaxQueueLen: res.MaxQueueLen,
		FinalRPs:    res.FinalRPs,
		RPQueues:    res.RPQueues,
		SeriesHash:  h.Sum64(),
	}
	for _, s := range res.Splits {
		fp.SplitPackets = append(fp.SplitPackets, s.PacketIndex)
	}
	return fp
}

// movementFingerprint is the comparable outcome of one RunMovement call:
// per-type movement counts and convergence sums in gamemap.MoveTypes order
// (the Table III rows), and the byte and object totals.
type movementFingerprint struct {
	Counts               []int
	SumBits              []uint64
	TotalBits, BytesBits uint64
	ObjectsSent          uint64
}

func fingerprintMovement(res *MovementResult) movementFingerprint {
	fp := movementFingerprint{
		TotalBits:   math.Float64bits(res.Total.Sum()),
		BytesBits:   math.Float64bits(res.Bytes),
		ObjectsSent: res.ObjectsSent,
	}
	for _, mt := range gamemap.MoveTypes() {
		fp.Counts = append(fp.Counts, res.Counts[mt])
		fp.SumBits = append(fp.SumBits, math.Float64bits(res.PerType[mt].Sum()))
	}
	return fp
}

// TestSimGolden pins every engine's outputs to literals recorded before the
// engines shared one FIFO station, one delivery plan and one per-update
// accounting routine. The shape tests above only check orderings; a change
// in float operand order, cache keying or self-exclusion passes them and
// fails this.
func TestSimGolden(t *testing.T) {
	env := testEnv(t, 8000)
	ramp := CompressRamp(env.Trace.Updates, 3.0, 1.8)
	flat := Compress(env.Trace.Updates, 2.4)
	replays := []struct {
		name    string
		r       Runner
		updates []trace.Update
		want    replayFingerprint
	}{
		{"gcopss-1rp", GCOPSSConfig{RPs: DefaultRPPlacement(env, 1), Costs: PaperCosts()}, ramp,
			replayFingerprint{Deliveries: 1229631, MeanBits: 0x40a65932068f396a, BytesBits: 0x41be570fe1000000,
				P50Bits: 0x40a2812a7a1c872c, P99Bits: 0x40c6e2cc45568da2, MaxQueueLen: 2185, FinalRPs: 1,
				RPQueues:   []RPQueueStat{{Name: "/rp1", Node: 0, MaxDepth: 2185, MeanDepth: 850.064875, Updates: 8000}},
				SeriesHash: 0x21222952ad5b78c}},
		{"gcopss-3rp", GCOPSSConfig{RPs: DefaultRPPlacement(env, 3), Costs: PaperCosts()}, ramp,
			replayFingerprint{Deliveries: 1229631, MeanBits: 0x40515fe780dc0b6b, BytesBits: 0x41be40bf4f000000,
				P50Bits: 0x40511c3e97cbebb7, P99Bits: 0x4059673cee7794e4, MaxQueueLen: 15, FinalRPs: 3,
				RPQueues: []RPQueueStat{
					{Name: "/rp1", Node: 0, MaxDepth: 13, MeanDepth: 1.4538780721353335, Updates: 3133},
					{Name: "/rp2", Node: 1, MaxDepth: 10, MeanDepth: 1.0453291288923925, Updates: 2537},
					{Name: "/rp3", Node: 2, MaxDepth: 15, MeanDepth: 1.5072961373390559, Updates: 2330}},
				SeriesHash: 0x2b381a6c70eac753}},
		{"gcopss-auto", GCOPSSConfig{RPs: DefaultRPPlacement(env, 1), Costs: PaperCosts(),
			Balance: &AutoBalance{QueueThreshold: 20, Window: 500, MaxRPs: 6,
				CandidateNodes: env.Cores[10:], MigrationMs: 50, Seed: 1}}, ramp,
			replayFingerprint{Deliveries: 1229631, MeanBits: 0x40550d9d0ffe7ab1, BytesBits: 0x41be572e1f000000,
				P50Bits: 0x405281818d5c8390, P99Bits: 0x40674096abe4300c, MaxQueueLen: 23, FinalRPs: 2,
				SplitPackets: []int{169},
				RPQueues: []RPQueueStat{
					{Name: "/rp1", Node: 0, MaxDepth: 23, MeanDepth: 2.2747224373870383, Updates: 3873},
					{Name: "/rp2", Node: 10, MaxDepth: 17, MeanDepth: 3.1034649866731283, Updates: 4127}},
				SeriesHash: 0x50a145c2fb2d71ac}},
		{"ipserver-3", ServerConfig{Servers: DefaultServerPlacement(env, 3), Costs: PaperCosts()}, flat,
			replayFingerprint{Deliveries: 1229631, MeanBits: 0x40c26e4c8580cadd, BytesBits: 0x41d7e99e61400000,
				P50Bits: 0x40bfc3c16c386b0f, P99Bits: 0x40d905b98b4fd57d, MaxQueueLen: 4362, FinalRPs: 3,
				SeriesHash: 0xb2a83872b6d5a26a}},
		{"hybrid-6", HybridConfig{Groups: 6, Costs: PaperCosts()}, flat,
			replayFingerprint{Deliveries: 1229631, MeanBits: 0x40404d3d31160b3e, BytesBits: 0x41c009284f800000,
				P50Bits: 0x40407c20ac08d513, P99Bits: 0x4054d2b377fc49a0,
				SeriesHash: 0x3fde8a981cd989f0}},
	}
	for _, c := range replays {
		res, err := c.r.Run(env, c.updates)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintReplay(res); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %#v\nwant %#v", c.name, got, c.want)
		}
	}

	menv := testEnv(t, 20000)
	if err := trace.GenerateMoves(menv.Game, menv.Trace, trace.MoveConfig{
		MinInterval: 2 * time.Minute, MaxInterval: 10 * time.Minute,
		UpProb: 0.1, DownProb: 0.1, GroupProb: 0.25, GroupMax: 8, Seed: 11,
	}); err != nil {
		t.Fatal(err)
	}
	moves := []struct {
		name   string
		mode   SnapshotMode
		window int
		want   movementFingerprint
	}{
		{"qr-w5", SnapshotQR, 5, movementFingerprint{Counts: []int{400, 368, 195, 587, 2909, 1757},
			SumBits:   []uint64{0x0, 0x412611badcefcc60, 0x41266e7c219c8a5f, 0x4125d18c06aa0efb, 0x4152ea5812239bbf, 0x414b2491b845b1ec},
			TotalBits: 0x4164636ca776a0c4, BytesBits: 0x41fd23facd067ce3, ObjectsSent: 1941004}},
		{"cyclic", SnapshotCyclic, 0, movementFingerprint{Counts: []int{400, 368, 195, 587, 2909, 1757},
			SumBits:   []uint64{0x0, 0x40edab673933da44, 0x40e5ef4481db7cdd, 0x40f42c53124e25ca, 0x4121e505bc9edf9a, 0x4117d576c4b2a962},
			TotalBits: 0x4131c77b1e797734, BytesBits: 0x41ea44dbab05d10a, ObjectsSent: 951185}},
	}
	for _, c := range moves {
		for _, o := range menv.Game.Objects() {
			*o = *gamemap.NewObject(o.ID, o.Leaf, 0)
		}
		res, err := RunMovement(menv, PaperSnapshotConfig(menv, c.mode, c.window))
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintMovement(res); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %#v\nwant %#v", c.name, got, c.want)
		}
	}
}
