package transport

import (
	"errors"
	"fmt"
	"io"
	"time"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/peer"
)

// DeliverConfig tunes one peer×channel deliver loop.
type DeliverConfig struct {
	// ChannelID is the channel to follow.
	ChannelID string
	// Backoff is the first reconnect delay; it doubles per consecutive
	// failure up to MaxBackoff. Defaults: 10ms up to 640ms.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// MaxRetries bounds CONSECUTIVE retryable failures (a session that
	// commits a block resets the count); 0 means retry until Stop. Fatal
	// errors ignore it entirely.
	MaxRetries int
	// OnRetry, when set, observes each healed (retried) transport error —
	// fabricnet records these separately from fatal errors.
	OnRetry func(err error)
}

// DeliverToPeer runs one channel's deliver loop against p until the serving
// side shuts down cleanly (nil), stop closes (nil), or a fatal error occurs.
// Each session resumes at the peer's height+1; re-delivered blocks (numbers
// <= height, from at-least-once transports or Chaos duplication) flow into
// the commit pipeline, whose fast-forward path hash-verifies and skips them.
// A sequence gap (a number beyond the next expected) aborts the session as
// retryable — reconnecting re-opens at exactly the missing block. Retryable
// transport failures reconnect with exponential backoff; commit errors and
// other application decisions are fatal and surface to the caller.
func DeliverToPeer(tr Transport, p *peer.Peer, cfg DeliverConfig, stop <-chan struct{}) error {
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 64 * cfg.Backoff
	}
	backoff := cfg.Backoff
	retries := 0
	retry := func(err error) error {
		retries++
		if cfg.MaxRetries > 0 && retries > cfg.MaxRetries {
			return fmt.Errorf("deliver %s/%s: giving up after %d consecutive retries: %w",
				p.Name(), cfg.ChannelID, cfg.MaxRetries, err)
		}
		deliverRetries.Inc()
		if cfg.OnRetry != nil {
			cfg.OnRetry(err)
		}
		select {
		case <-stop:
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > cfg.MaxBackoff {
			backoff = cfg.MaxBackoff
		}
		return nil
	}
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		height, err := p.HeightOn(cfg.ChannelID)
		if err != nil {
			return fmt.Errorf("deliver %s/%s: %w", p.Name(), cfg.ChannelID, err)
		}
		stream, err := tr.Deliver(cfg.ChannelID, height+1)
		if err != nil {
			if Retryable(err) {
				if giveUp := retry(err); giveUp != nil {
					return giveUp
				}
				continue
			}
			return err
		}
		progressed, err := deliverSession(stream, p, cfg, stop)
		if progressed {
			retries = 0
			backoff = cfg.Backoff
		}
		if err == nil {
			return nil
		}
		if Retryable(err) {
			if giveUp := retry(err); giveUp != nil {
				return giveUp
			}
			continue
		}
		return err
	}
}

// deliverSession pumps one open stream into a fresh commit pipeline. It
// returns (progressed, err): progressed reports whether any block advanced
// the chain; err is nil on clean end (EOF or stop), retryable on a medium
// failure or sequence gap, fatal otherwise (commit errors included).
func deliverSession(stream BlockStream, p *peer.Peer, cfg DeliverConfig, stop <-chan struct{}) (bool, error) {
	// Unblock a waiting Recv when the caller stops us mid-session.
	sessionDone := make(chan struct{})
	defer close(sessionDone)
	go func() {
		select {
		case <-stop:
			stream.Close()
		case <-sessionDone:
		}
	}()
	defer stream.Close()

	feed := make(chan *ledger.Block)
	pipeDone := make(chan error, 1)
	go func() {
		pipeDone <- p.CommitPipeline(cfg.ChannelID, feed)
	}()

	height, err := p.HeightOn(cfg.ChannelID)
	if err != nil {
		close(feed)
		<-pipeDone
		return false, err
	}
	start := height + 1
	expected := start
	var sessionErr error
pump:
	for {
		b, err := stream.Recv()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				sessionErr = err
			}
			break
		}
		if num := b.Header.Number; num > expected {
			sessionErr = Errorf("deliver", true,
				"sequence gap on %s: got block %d, expected %d", cfg.ChannelID, num, expected)
			break
		} else if num == expected {
			expected++
		}
		// num <= expected: feed it through — the pipeline's fast-forward
		// path hash-verifies and skips already-committed numbers.
		select {
		case feed <- b:
		case <-stop:
			break pump
		}
	}
	// CommitPipeline drains the feed after poisoning on error, so this close
	// is never stuck and its error (the FIRST commit failure) is complete.
	close(feed)
	perr := <-pipeDone
	endHeight, _ := p.HeightOn(cfg.ChannelID)
	progressed := endHeight+1 > start
	if perr != nil {
		// The application rejected a block: fatal, reconnecting cannot help.
		return progressed, perr
	}
	return progressed, sessionErr
}
