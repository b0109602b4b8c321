package netreg

import (
	"net"

	"repro/internal/obs"
)

// StatConn wraps conn so every byte read and written counts into ws —
// the same wrapper the client and server connections use internally,
// exported for other transports over the same wire protocol (the
// replica quorum engine counts its sockets with it). A nil tally
// returns conn unchanged. Deadline and close calls pass through to the
// wrapped connection.
func StatConn(conn net.Conn, ws *obs.Wire) net.Conn {
	if ws == nil {
		return conn
	}
	return statConn{Conn: conn, ws: ws}
}

// statConn counts a connection's bytes into a Wire tally. Frames are
// counted at the codec layer; this sees what actually hit the socket,
// length prefixes, batching and all.
type statConn struct {
	net.Conn
	ws *obs.Wire
}

func (c statConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.ws.AddBytesIn(n)
	return n, err
}

func (c statConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.ws.AddBytesOut(n)
	return n, err
}
