package main

// seqCheck verifies that one subscriber got one origin's publishes exactly
// once and in order. The publisher numbers its publishes 1..n; which of them
// this subscriber should see is a pure function of the sequence number, so
// the checker needs no shared state with the publisher while traffic flows.
type seqCheck struct {
	seen []uint64 // bitset indexed by seq
	last uint64   // highest seq seen so far

	duplicate int64 // seq seen before
	reordered int64 // first sight of a seq below one already seen
}

// observe records the arrival of seq.
func (c *seqCheck) observe(seq uint64) {
	word, bit := seq/64, uint64(1)<<(seq%64)
	for uint64(len(c.seen)) <= word {
		c.seen = append(c.seen, make([]uint64, len(c.seen)+1024)...)
	}
	if c.seen[word]&bit != 0 {
		c.duplicate++
		return
	}
	c.seen[word] |= bit
	if seq < c.last {
		c.reordered++
		return
	}
	c.last = seq
}

func (c *seqCheck) has(seq uint64) bool {
	word := seq / 64
	return word < uint64(len(c.seen)) && c.seen[word]&(1<<(seq%64)) != 0
}

// seqVerdict is the outcome of comparing what arrived with what should have.
type seqVerdict struct {
	expected, missing, misdelivered, duplicate, reordered int64
}

func (v seqVerdict) failed() int64 {
	return v.missing + v.misdelivered + v.duplicate + v.reordered
}

func (v *seqVerdict) add(o seqVerdict) {
	v.expected += o.expected
	v.missing += o.missing
	v.misdelivered += o.misdelivered
	v.duplicate += o.duplicate
	v.reordered += o.reordered
}

// verdict compares arrivals with the sequence numbers 1..sent, of which this
// subscriber should have seen exactly those that want reports true.
func (c *seqCheck) verdict(sent uint64, want func(seq uint64) bool) seqVerdict {
	v := seqVerdict{duplicate: c.duplicate, reordered: c.reordered}
	for seq := uint64(1); seq <= sent; seq++ {
		w, h := want(seq), c.has(seq)
		if w {
			v.expected++
		}
		switch {
		case w && !h:
			v.missing++
		case !w && h:
			v.misdelivered++
		}
	}
	// Anything beyond what the publisher sent cannot have been wanted.
	for seq := sent + 1; seq < uint64(len(c.seen))*64; seq++ {
		if c.has(seq) {
			v.misdelivered++
		}
	}
	return v
}
