package wire

import (
	"errors"
	"io"
	"net"
	"syscall"

	"fabriccrdt/internal/framing"
	"fabriccrdt/internal/obs"
)

// Wire traffic counters on the process-global Default registry: a process
// may host many clients and servers, but frames and bytes on the wire are
// a per-process property. All increments sit on paths that already paid
// for a syscall, so the atomic adds are noise.
var (
	framesClientOut = obs.Default().Counter(obs.MetricWireFrames, "side", "client", "dir", "out")
	framesClientIn  = obs.Default().Counter(obs.MetricWireFrames, "side", "client", "dir", "in")
	framesServerOut = obs.Default().Counter(obs.MetricWireFrames, "side", "server", "dir", "out")
	framesServerIn  = obs.Default().Counter(obs.MetricWireFrames, "side", "server", "dir", "in")

	bytesClientOut = obs.Default().Counter(obs.MetricWireBytes, "side", "client", "dir", "out")
	bytesClientIn  = obs.Default().Counter(obs.MetricWireBytes, "side", "client", "dir", "in")
	bytesServerOut = obs.Default().Counter(obs.MetricWireBytes, "side", "server", "dir", "out")
	bytesServerIn  = obs.Default().Counter(obs.MetricWireBytes, "side", "server", "dir", "in")

	frameErrsClient = obs.Default().Counter(obs.MetricWireFrameErrors, "side", "client")
	frameErrsServer = obs.Default().Counter(obs.MetricWireFrameErrors, "side", "server")
	reconnects      = obs.Default().Counter(obs.MetricWireReconnects)
)

// frameBytes is a frame's full on-the-wire size: framing header, fixed
// header, body.
func frameBytes(f frame) int64 {
	return int64(framing.HeaderLen + headerLen + len(f.Body))
}

// countFrameErr counts a failed frame read or write as a frame error
// unless all it reports is that one side closed the connection: a clean
// EOF, a socket closed locally, or a reset or broken pipe from the remote
// end. What remains are received bytes that fail to decode and writes that
// fail on a connection both sides still hold open.
func countFrameErr(c *obs.Counter, err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return
	}
	c.Inc()
}
