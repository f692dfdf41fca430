// Package bitset provides a dense, fixed-capacity bit set over the integers
// [0, n). It is the workhorse behind frontier expansion in the Expansion
// Process and behind reachability bookkeeping in the temporal-path
// algorithms, where the vertex universe is known in advance and membership
// tests dominate.
//
// The zero value of Set is an empty set of capacity zero; use New to obtain
// a set that can hold elements.
package bitset
