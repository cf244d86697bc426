package adnet

import (
	"fmt"
	"strings"
)

// Seller identity — the simulated ecosystem's sellers.json / ads.txt
// layer. Every publisher has a direct seller account, belongs to an
// owner group (a media house operating several domains), and may route
// inventory through the network's exchange account. Those three are
// what an ads.txt crawl of the domain would return: the set of seller
// IDs the publisher has authorized to sell its inventory. The audit's
// seller cross-check compares vendor-report attributions against this
// declared set; anything outside it is an unauthorized reseller — the
// dark-pooling signature (Vekaria et al., arXiv 2210.06654).
//
// Identities are pure functions of the domain (fnv hashes, the same
// stable-slice idiom as servesGeo), so the directory needs no storage
// and never perturbs the publisher-universe RNG streams.

// ExchangeSellerID is the network's own exchange account — the seller
// of record for anonymous/masked inventory. Ads.txt-style cross-checks
// treat it as universally declared, and the pooling detector exempts
// it: an exchange legitimately spans every owner group.
const ExchangeSellerID = "exchange.adnetwork.example"

// ownerGroups bounds the owner-group space so unrelated domains
// occasionally share a group — media houses own multiple sites.
const ownerGroups = 512

// ownerLabels holds every group label: OwnerGroupOf runs per report row.
var ownerLabels = func() (labels [ownerGroups]string) {
	for i := range labels {
		labels[i] = fmt.Sprintf("owner-%03d", i)
	}
	return labels
}()

// DirectSellerID returns the publisher's own seller account ID. It
// embeds the domain, so distinct domains never collide.
func DirectSellerID(domain string) string {
	return "direct:" + domain
}

// OwnerGroupOf returns the owner-group label for a domain — the
// "unrelated publisher groups" unit of the pooling detector. Domains
// hash into a bounded group space; two domains in the same group are
// considered commonly owned.
func OwnerGroupOf(domain string) string {
	// FNV-1a (32-bit) over domain + "/owner", inline so nothing allocates.
	h := uint32(2166136261)
	for _, s := range [2]string{domain, "/owner"} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * 16777619
		}
	}
	return ownerLabels[h%ownerGroups]
}

// OwnerSellerID returns the seller account of a domain's owner group —
// the legitimate way one seller ID spans several domains.
func OwnerSellerID(group string) string {
	return "owner:" + group
}

// SellerRegistry is the default directory of declared sellers — the
// simulated equivalent of crawling every publisher's ads.txt plus the
// exchange's sellers.json. It satisfies audit.SellerDirectory.
type SellerRegistry struct{}

// Authorized reports whether seller appears in publisher's declared
// seller set.
func (SellerRegistry) Authorized(publisher, seller string) bool {
	if seller == ExchangeSellerID {
		return true
	}
	if seller == DirectSellerID(publisher) {
		return true
	}
	return seller == OwnerSellerID(OwnerGroupOf(publisher))
}

// KnownExchange reports whether seller is a disclosed exchange
// account — exempt from pooling detection by design.
func (SellerRegistry) KnownExchange(seller string) bool {
	return seller == ExchangeSellerID
}

// OwnerGroup returns the publisher's owner-group label.
func (SellerRegistry) OwnerGroup(publisher string) string {
	return OwnerGroupOf(publisher)
}

// IsPoolSellerID reports whether a seller ID has the dark-pool shape
// the adversary layer mints ("pool-N") — a test convenience, not a
// detection signal.
func IsPoolSellerID(seller string) bool {
	return strings.HasPrefix(seller, "pool-")
}
