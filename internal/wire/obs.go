package wire

import (
	"sync"

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

// liveClients tracks every open Client so one scrape-time gauge can report
// the total frames parked in their unbounded per-call queues — the wire
// layer's only unbounded buffers.
var (
	liveClientsMu sync.Mutex
	liveClients   = make(map[*Client]struct{})
)

func init() {
	obs.Default().GaugeFunc(obs.MetricWireCallQueueDepth, func() float64 {
		liveClientsMu.Lock()
		clients := make([]*Client, 0, len(liveClients))
		for c := range liveClients {
			clients = append(clients, c)
		}
		liveClientsMu.Unlock()
		total := 0
		for _, c := range clients {
			total += c.queueDepth()
		}
		return float64(total)
	})
}

func trackClient(c *Client) {
	liveClientsMu.Lock()
	liveClients[c] = struct{}{}
	liveClientsMu.Unlock()
}

func untrackClient(c *Client) {
	liveClientsMu.Lock()
	delete(liveClients, c)
	liveClientsMu.Unlock()
}
