// Package chain implements a synthetic blockchain ledger standing in for
// the real Bitcoin/Ethereum blockchains the paper consults when manually
// verifying high-value contracts (§4.5). The simulator records on-chain
// transactions for a fraction of contracts; the audit analysis later looks
// those transactions up by hash and compares recorded values
// against contract-declared ones — exactly the verify-against-ledger code
// path the paper describes, including the possibility that a dishonest
// party cites an unrelated-but-plausible transaction.
package chain

import (
	"fmt"
	"sync"
	"time"
)

// Address is a ledger address (synthetic base58-ish string).
type Address string

// Tx is one recorded ledger transaction.
type Tx struct {
	Hash     string
	From, To Address
	ValueUSD float64 // value at transaction time, in USD
	Time     time.Time
}

// Ledger is an append-only set of transactions indexed by hash. It is
// safe for concurrent use.
type Ledger struct {
	mu     sync.RWMutex
	byHash map[string]Tx
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{byHash: make(map[string]Tx)}
}

// Record appends a transaction. Recording a duplicate hash is an error:
// hashes are unique on a real chain.
func (l *Ledger) Record(tx Tx) error {
	if tx.Hash == "" {
		return fmt.Errorf("chain: transaction with empty hash")
	}
	if tx.ValueUSD < 0 {
		return fmt.Errorf("chain: negative transaction value %v", tx.ValueUSD)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.byHash[tx.Hash]; dup {
		return fmt.Errorf("chain: duplicate transaction hash %s", tx.Hash)
	}
	l.byHash[tx.Hash] = tx
	return nil
}

// Len returns the number of recorded transactions.
func (l *Ledger) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.byHash)
}

// LookupHash returns the transaction with the given hash.
func (l *Ledger) LookupHash(hash string) (Tx, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	tx, ok := l.byHash[hash]
	return tx, ok
}

// Verdict classifies the outcome of verifying a contract-declared value
// against the ledger, mirroring the paper's three audit buckets.
type Verdict int

// Audit outcomes.
const (
	// NotFound: no matching transaction — the paper's "could not be
	// confirmed" bucket (7% of high-value contracts).
	NotFound Verdict = iota
	// Confirmed: a transaction matches the declared value within
	// tolerance (50% of the paper's high-value contracts).
	Confirmed
	// Mismatch: a transaction exists but at a different value, usually
	// lower — private renegotiation or typos (43% in the paper).
	Mismatch
)

// String renders the verdict for reports.
func (v Verdict) String() string {
	switch v {
	case Confirmed:
		return "confirmed"
	case Mismatch:
		return "mismatch"
	default:
		return "not-found"
	}
}

// Verification is the result of checking one declared value.
type Verification struct {
	Verdict   Verdict
	ActualUSD float64 // recorded value when Verdict != NotFound
	Tx        Tx
}

// VerifyHash checks a declared USD value against the transaction with the
// given hash. relTol is the relative tolerance for "confirmed"
// (e.g. 0.1 = within 10%).
func (l *Ledger) VerifyHash(hash string, declaredUSD, relTol float64) Verification {
	tx, ok := l.LookupHash(hash)
	if !ok {
		return Verification{Verdict: NotFound}
	}
	return classify(tx, declaredUSD, relTol)
}

func classify(tx Tx, declaredUSD, relTol float64) Verification {
	v := Verification{ActualUSD: tx.ValueUSD, Tx: tx}
	scale := declaredUSD
	if scale < 1 {
		scale = 1
	}
	if diffAbs(tx.ValueUSD, declaredUSD) <= relTol*scale {
		v.Verdict = Confirmed
	} else {
		v.Verdict = Mismatch
	}
	return v
}

func diffAbs(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

const hashAlphabet = "0123456789abcdef"

// HashFrom renders a deterministic 64-hex-char transaction hash from two
// 64-bit words (callers derive the words from their RNG stream).
func HashFrom(a, b uint64) string {
	buf := make([]byte, 64)
	for i := 0; i < 16; i++ {
		buf[i] = hashAlphabet[(a>>(uint(i)*4))&0xf]
		buf[16+i] = hashAlphabet[(b>>(uint(i)*4))&0xf]
		buf[32+i] = hashAlphabet[((a^b)>>(uint(i)*4))&0xf]
		buf[48+i] = hashAlphabet[((a+b)>>(uint(i)*4))&0xf]
	}
	return string(buf)
}

// AddressFrom renders a deterministic synthetic address from a 64-bit word.
func AddressFrom(a uint64) Address {
	const alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
	buf := make([]byte, 0, 34)
	buf = append(buf, '1')
	x := a
	for i := 0; i < 32; i++ {
		buf = append(buf, alphabet[x%uint64(len(alphabet))])
		x = x*6364136223846793005 + 1442695040888963407
	}
	return Address(buf)
}
