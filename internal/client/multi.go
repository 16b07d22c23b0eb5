package client

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"fabriccrdt/internal/ledger"
)

// MultiClient errors.
var (
	ErrNoClients      = errors.New("client: multi-client needs at least one client")
	ErrUnknownChannel = errors.New("client: channel not configured on this multi-client")
)

// MultiClient bundles one Client per channel under a single application
// identity: submit to a named channel, or let the round-robin helper
// spread independent transactions across every channel — the
// multi-channel sharding pattern where aggregate throughput scales with
// the channel count because channels commit in parallel.
//
// All methods are safe for concurrent use (each underlying Client already
// is; the rotation cursor is atomic).
type MultiClient struct {
	order     []string
	byChannel map[string]*Client
	next      atomic.Uint64
}

// NewMultiClient bundles the given per-channel clients. Each client's
// bound channel becomes its key; two clients on the same channel are an
// error, as is an empty list.
func NewMultiClient(clients ...*Client) (*MultiClient, error) {
	if len(clients) == 0 {
		return nil, ErrNoClients
	}
	m := &MultiClient{byChannel: make(map[string]*Client, len(clients))}
	for _, c := range clients {
		id := c.ChannelID()
		if _, dup := m.byChannel[id]; dup {
			return nil, fmt.Errorf("client: two clients bound to channel %q", id)
		}
		m.byChannel[id] = c
		m.order = append(m.order, id)
	}
	return m, nil
}

// Channels returns the configured channel IDs in registration order.
func (m *MultiClient) Channels() []string { return append([]string(nil), m.order...) }

// On returns the client bound to one channel.
func (m *MultiClient) On(channelID string) (*Client, error) {
	c, ok := m.byChannel[channelID]
	if !ok {
		return nil, fmt.Errorf("%w: %q (configured: %v)", ErrUnknownChannel, channelID, m.order)
	}
	return c, nil
}

// SubmitAndWait submits on the named channel and blocks until the commit
// event arrives (or timeout).
func (m *MultiClient) SubmitAndWait(timeout time.Duration, channelID, chaincodeName string, args ...[]byte) (ledger.ValidationCode, error) {
	c, err := m.On(channelID)
	if err != nil {
		return ledger.CodeNotValidated, err
	}
	return c.SubmitAndWait(timeout, chaincodeName, args...)
}

// rotate returns the next channel in round-robin order.
func (m *MultiClient) rotate() *Client {
	id := m.order[(m.next.Add(1)-1)%uint64(len(m.order))]
	return m.byChannel[id]
}

// SubmitAndWaitRoundRobin submits on the next channel in rotation — the
// sharding helper for workloads whose transactions are independent of each
// other — and waits for the commit, returning the chosen channel.
func (m *MultiClient) SubmitAndWaitRoundRobin(timeout time.Duration, chaincodeName string, args ...[]byte) (channelID string, code ledger.ValidationCode, err error) {
	c := m.rotate()
	code, err = c.SubmitAndWait(timeout, chaincodeName, args...)
	return c.ChannelID(), code, err
}
