// Package wire is a minimal stub of the real internal/wire package, just
// enough surface for the sharedpkt testdata to type-check. The analyzer
// matches it by path suffix.
package wire

type Type uint8

type Packet struct {
	Type    Type
	Name    string
	CDs     []string
	Payload []byte
	Seq     uint64
	CtlSeq  uint64
}
