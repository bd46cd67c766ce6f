package obs

import (
	"context"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// SignalContext returns a copy of parent that is cancelled on SIGINT or
// SIGTERM (or when parent is cancelled). The returned stop function
// releases the signal registration; after the first signal cancels the
// context, stop restores default delivery so a second signal terminates a
// process that fails to drain.
//
// wardenbench and wardensim install it around -serve-linger, so a Ctrl-C
// during the lingering window cuts the wait short instead of killing the
// process with connections mid-flight.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// Linger blocks until d elapses or ctx is cancelled, whichever comes
// first — the interruptible replacement for time.Sleep in -serve-linger.
// A non-positive d returns immediately.
func Linger(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Drain gracefully shuts down hs: in-flight requests get up to deadline to
// complete (http.Server.Shutdown), after which remaining connections are
// force-closed so the process always exits. log, if non-nil, records a
// forced close.
func Drain(hs *http.Server, deadline time.Duration, log *slog.Logger) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	err := hs.Shutdown(ctx)
	if err != nil {
		if log != nil {
			log.Warn("drain deadline exceeded; closing remaining connections", "deadline", deadline, "err", err)
		}
		hs.Close()
	}
	return err
}
