package main

import (
	"net"
	"sync/atomic"
)

// countingListener wraps the coordinator's listener and counts the
// bytes its accepted connections read and write, so the wire cost of a
// distributed run is measured without changing the distrib package.
type countingListener struct {
	net.Listener
	in, out, conns atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.out.Add(int64(n))
	return n, err
}
