package ot

import "secyan/internal/prf"

// This file is the single source of truth for the wire cost of the OT
// layer. The plan compiler in internal/core uses these closed forms to
// predict traffic exactly; cost_test.go asserts they match the bytes a
// real Sender/Receiver pair puts on a transport.Conn.

// SetupCost returns the total bytes (both directions) exchanged by the
// base OTs that bootstrap one OT-extension direction, i.e. one
// SetupSender/SetupReceiver pair (a session runs one per direction, a
// bare NewSender/NewReceiver pair one of its own):
//
//	SetupReceiver runs BaseSend:  cMsg (one group element) + κ records
//	                              of (group element + two encrypted seeds)
//	SetupSender runs BaseRecv:    κ public keys (group elements)
func SetupCost() int64 {
	rec := groupElementLen + 2*prf.SeedSize
	return int64(groupElementLen) + int64(kappa)*int64(rec) + int64(kappa)*int64(groupElementLen)
}

// ExtCost returns the total bytes (both directions) of one IKNP
// extension batch of m OTs with msgLen-byte messages: the receiver's
// κ×mPad correction matrix plus the sender's 2m ciphertexts. A batch of
// zero OTs exchanges nothing.
func ExtCost(m, msgLen int) int64 {
	if m == 0 {
		return 0
	}
	mPad := (m + 63) &^ 63
	return int64(kappa/8)*int64(mPad) + 2*int64(m)*int64(msgLen)
}

// ExtOfflineCost returns the bytes a precomputed (FillRandom) batch of m
// OTs moves during the offline phase: only the receiver's κ×mPad
// correction matrix. Message width is irrelevant offline — pads are
// derived locally and kept.
func ExtOfflineCost(m int) int64 {
	if m == 0 {
		return 0
	}
	mPad := (m + 63) &^ 63
	return int64(kappa/8) * int64(mPad)
}

// ExtOnlineCost returns the bytes the derandomized online exchange moves
// for a precomputed batch: ⌈m/8⌉ packed correction bits from the
// receiver plus the sender's usual 2m ciphertexts. Summed with
// ExtOfflineCost this exceeds ExtCost by exactly the correction bits —
// the total additive overhead of precomputation.
func ExtOnlineCost(m, msgLen int) int64 {
	if m == 0 {
		return 0
	}
	return int64((m+7)/8) + 2*int64(m)*int64(msgLen)
}
