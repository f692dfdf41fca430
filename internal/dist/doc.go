// Package dist provides the label laws of the paper's F-CASE (§2 note):
// distributions over the label set {1,…,a} from which
// assign.FromDistributionInto draws per-edge availability labels. The
// UNI-CASE is the uniform law; the others move the label mass early
// (geometric, zipf) or to the middle (binomial) so experiments can
// separate "how many labels" from "where the labels sit".
package dist
