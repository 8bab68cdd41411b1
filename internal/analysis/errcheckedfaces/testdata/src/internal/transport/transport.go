// Package transport stubs the real internal/transport surface for the
// errcheckedfaces testdata.
package transport

import "internal/wire"

type Conn struct{}

func (c *Conn) WritePacket(p *wire.Packet) error { return nil }

func (c *Conn) WriteBurst(ps []*wire.Packet) error { return nil }

func (c *Conn) SendHello(name string) error { return nil }

// Close is deliberately outside the checked face-write set.
func (c *Conn) Close() error { return nil }
