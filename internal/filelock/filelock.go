// Package filelock is the exclusive sibling-file lock the persistent
// stores share: the plan store (sched.PlanCache.SaveFileMerged) holds
// it for one merge-and-rename, the job journal (jobstore.Open) for the
// store's whole lifetime.
//
// On unix-like systems the lock is an exclusive flock(2) on the lock
// file's open descriptor: the kernel drops a dead process's flock with
// its descriptors, so a holder killed mid-write never orphans the
// store. Elsewhere the lock is the lock file's existence, taken with
// O_CREATE|O_EXCL; a crashed holder leaves it behind until an operator
// removes it, because breaking it automatically would race a live
// holder and readmit the lost update or interleaved append the lock
// exists to prevent.
package filelock

import "time"

// retry is how often Acquire polls a held lock. Polling a non-blocking
// attempt, rather than blocking in the kernel, keeps the caller's
// timeout enforceable.
const retry = 2 * time.Millisecond
