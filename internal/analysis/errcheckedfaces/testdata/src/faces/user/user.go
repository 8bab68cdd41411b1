package user

import (
	"internal/transport"
	"internal/wire"
)

func bad(c *transport.Conn, p *wire.Packet) {
	wire.Encode(p)              // want "error result of Encode is discarded"
	c.WritePacket(p)            // want "error result of WritePacket is discarded"
	go c.WritePacket(p)         // want "error result of WritePacket is discarded"
	defer c.WritePacket(p)      // want "error result of WritePacket is discarded"
	c.WriteBurst(nil)           // want "error result of WriteBurst is discarded"
	_ = c.SendHello("r1")       // want "error result of SendHello is assigned to _"
	_ = p.Validate()            // want "error result of Validate is assigned to _"
	q, n, _ := wire.Decode(nil) // want "error result of Decode is assigned to _"
	_, _ = q, n
}

func good(c *transport.Conn, p *wire.Packet) error {
	b, err := wire.Encode(p)
	if err != nil {
		return err
	}
	_ = b
	if err := c.WritePacket(p); err != nil {
		return err
	}
	c.Close() // Close is not a face write; other linters own it
	_ = wire.Size(p)
	return p.Validate()
}

func allowed(c *transport.Conn, p *wire.Packet) {
	c.WritePacket(p) //lint:allow errcheckedfaces best-effort probe on a face being torn down
}
