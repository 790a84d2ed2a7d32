package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/obs"
)

// Transport abstracts how node processes reach each other: Dial and
// Listen produce frame-granular connections (the codec lives inside
// the Conn, one symbol table per direction). Two implementations ship:
// ChanNet (in-process byte pipes, with the async delay models as the
// simulated network) and TCP (real sockets over loopback or beyond).
type Transport interface {
	Dial(addr string) (Conn, error)
	Listen(addr string) (Listener, error)
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Addr() string
	Close() error
}

// Conn is one bidirectional frame stream. Send and Recv are each
// internally serialized but may be used concurrently with one another.
// Send encodes the frame before it returns, so the caller may reuse
// it at once. A frame returned by Recv is valid until the next Recv
// on the same Conn (the decoder reuses its storage).
type Conn interface {
	Send(f Frame) error
	Recv() (Frame, error)
	Close() error
}

// streamConn runs the codec over any duplex byte stream — a TCP
// socket and an in-process pipe pair look identical from here up, so
// the chan and tcp transports exercise the exact same framing.
type streamConn struct {
	sendMu sync.Mutex
	enc    *Encoder
	flush  func() error

	recvMu sync.Mutex
	dec    *Decoder

	closers []io.Closer
	onSend  func(f Frame) // delay accounting hook (ChanNet)
}

// newStreamConn builds a Conn over a reader and a writer. flush, when
// non-nil, is called after each encoded frame (buffered writers).
func newStreamConn(r io.Reader, w io.Writer, flush func() error, met *obs.WireMetrics, closers ...io.Closer) *streamConn {
	return &streamConn{
		enc:     NewEncoder(w, met),
		flush:   flush,
		dec:     NewDecoder(r, met),
		closers: closers,
	}
}

func (c *streamConn) Send(f Frame) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if err := c.enc.Encode(f); err != nil {
		return err
	}
	if c.flush != nil {
		if err := c.flush(); err != nil {
			return err
		}
	}
	if c.onSend != nil {
		c.onSend(f)
	}
	return nil
}

func (c *streamConn) Recv() (Frame, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	return c.dec.Decode()
}

func (c *streamConn) Close() error {
	var first error
	for _, cl := range c.closers {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TCPTransport speaks the codec over TCP sockets. Writes are buffered
// and flushed per frame (a round frame is one logical unit; syscall
// per field would dominate at small frame sizes).
type TCPTransport struct {
	met *obs.WireMetrics
}

// NewTCP returns the socket transport. met may be nil.
func NewTCP(met *obs.WireMetrics) *TCPTransport { return &TCPTransport{met: met} }

func (t *TCPTransport) Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return t.wrap(nc), nil
}

func (t *TCPTransport) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{ln: ln, t: t}, nil
}

func (t *TCPTransport) wrap(nc net.Conn) Conn {
	bw := bufio.NewWriter(nc)
	return newStreamConn(nc, bw, bw.Flush, t.met, nc)
}

type tcpListener struct {
	ln net.Listener
	t  *TCPTransport
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(nc), nil
}

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }
func (l *tcpListener) Close() error { return l.ln.Close() }

// errTransport formats transport-level failures uniformly.
func errTransport(op, addr string, err error) error {
	return fmt.Errorf("wire: %s %s: %w", op, addr, err)
}
