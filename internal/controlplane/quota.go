package controlplane

// tokenBucket is the per-tenant admission limiter. It is deterministic by
// construction: refill is driven by an injected monotonic nanosecond
// clock (Config.NowNanos), never by a wall-clock read of its own, so a
// server running with a virtual clock — or with no clock at all — admits
// exactly the same request sequence on every replay.
//
// Invariants (checked by the quota property test):
//   - tokens never exceeds burst,
//   - tokens never goes negative,
//   - over any clock window Δ, admissions ≤ burst + rate·Δ.
//
// A bucket stores only its balance: its rate and burst are the tenant's
// tier policy's, which every take passes in.
type tokenBucket struct {
	// tokens is the current balance; lastNanos the clock at last refill.
	tokens    float64
	lastNanos int64
}

func newTokenBucket(burst float64, nowNanos int64) tokenBucket {
	return tokenBucket{tokens: burst, lastNanos: nowNanos}
}

// refill advances the bucket to nowNanos at rate tokens per second, up
// to burst. A clock that goes backwards is clamped (no refund, no
// negative elapsed).
func (b *tokenBucket) refill(rate, burst float64, nowNanos int64) {
	if nowNanos > b.lastNanos {
		b.tokens += rate * float64(nowNanos-b.lastNanos) / 1e9
		if b.tokens > burst {
			b.tokens = burst
		}
		b.lastNanos = nowNanos
	}
}

// take spends one token if available; false means the admission is over
// quota. A rate of 0 disables refill-based limiting: the bucket is inert
// and always admits.
func (b *tokenBucket) take(rate, burst float64, nowNanos int64) bool {
	if rate <= 0 {
		return true
	}
	b.refill(rate, burst, nowNanos)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
