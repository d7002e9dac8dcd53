// Package asdb is the autonomous-system registry behind the census
// characterization. It plays the role of WHOIS, the CAIDA AS rank, and the
// Alexa top-100k cross-check of the paper (Secs. 4.1-4.2): every anycast
// deployment belongs to an AS with a name, a business category, optional
// CAIDA/Alexa standing, and a footprint (number of anycast /24s, mean
// geographic replicas per /24).
//
// The top-100 table is transcribed from Fig. 9 of the paper; the remaining
// 246 ASes of the census (Fig. 10: 346 ASes in total) are synthesized
// deterministically with the footprint distribution of Fig. 13.
package asdb

import (
	"fmt"
	"math/rand"
	"sync"
)

// Category is the business category of an AS (the top x-axis labels of
// Fig. 9). Categories are informal; for ASes with multiple services only
// the most prominent is recorded.
type Category int

const (
	CatUnknown Category = iota
	CatDNS
	CatCDN
	CatCloud
	CatISP
	CatISPTier1
	CatSecurity
	CatSocialNetwork
	CatWebPortal
	CatBlogging
	CatOnlineMarketing
	CatWebAnalytics
	CatADTech
	CatCloudMessaging
	CatVideoConferencing
	CatTelecomVendor
	CatBackbone
)

var categoryNames = map[Category]string{
	CatUnknown:           "unknown",
	CatDNS:               "DNS",
	CatCDN:               "CDN",
	CatCloud:             "Cloud",
	CatISP:               "ISP",
	CatISPTier1:          "ISP-tier1",
	CatSecurity:          "Security",
	CatSocialNetwork:     "Social Network",
	CatWebPortal:         "Web Portal",
	CatBlogging:          "Blogging",
	CatOnlineMarketing:   "Online Marketing",
	CatWebAnalytics:      "Web Analytics",
	CatADTech:            "AD technology",
	CatCloudMessaging:    "Cloud messaging",
	CatVideoConferencing: "Video Conferencing",
	CatTelecomVendor:     "Telecom Vendor",
	CatBackbone:          "Backbone Network",
}

func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Coarse buckets the fine-grained category into the eight classes of the
// Fig. 11 breakdown (DNS, CDN, Cloud, ISP, Security, Social, unknown,
// Other).
func (c Category) Coarse() string {
	switch c {
	case CatDNS:
		return "DNS"
	case CatCDN:
		return "CDN"
	case CatCloud, CatCloudMessaging:
		return "Cloud"
	case CatISP, CatISPTier1, CatBackbone:
		return "ISP"
	case CatSecurity:
		return "Security"
	case CatSocialNetwork:
		return "Social"
	case CatUnknown:
		return "Unknown"
	default:
		return "Other"
	}
}

// CoarseCategories lists the Fig. 11 buckets in display order.
var CoarseCategories = []string{"DNS", "CDN", "Cloud", "ISP", "Security", "Social", "Unknown", "Other"}

// AS describes one autonomous system of the census.
type AS struct {
	ASN      int
	Name     string // WHOIS-style name, as printed in Fig. 9
	CC       string
	Category Category

	// CAIDARank is the CAIDA AS-rank standing (1 = largest customer
	// cone); 0 means outside any rank we track. 8 ASes of the census are
	// in the CAIDA top-100 (Fig. 10).
	CAIDARank int

	// AlexaSites is the number of Alexa top-100k websites served from
	// this AS's anycast prefixes (Sec. 4.1: 15 ASes host such sites).
	AlexaSites int

	// AlexaIP24s is the number of the AS's anycast /24s that actually
	// host those websites (Fig. 10: 242 /24s across the 15 ASes; a site
	// can resolve to several /24s and a /24 can host several sites).
	AlexaIP24s int

	// IP24s is the number of anycast /24 prefixes operated by the AS
	// (middle bar plot of Fig. 9; Fig. 13 distribution).
	IP24s int

	// PaperMeanReplicas is the mean number of geographically distinct
	// replicas per /24 the paper measured from PlanetLab (bottom bar
	// plot of Fig. 9). The synthetic world inflates this by the
	// deployment-inflation factor to obtain the true deployment size,
	// since the paper's figures are a conservative lower bound.
	PaperMeanReplicas int

	// Top100 marks membership in the paper's top-100 list (ASes with at
	// least 5 detected replicas).
	Top100 bool
}

func (a AS) String() string { return fmt.Sprintf("AS%d(%s)", a.ASN, a.Name) }

// top100 transcribes Fig. 9: the 100 ASes with at least 5 replicas, ordered
// by decreasing geographical footprint. IP24s values that the paper states
// explicitly (Fig. 13 and Sec. 4.2) are hardcoded; zero values are filled
// deterministically by Default so that the total matches Fig. 10 (897 /24s
// across the top-100).
var top100 = []AS{
	{ASN: 13335, Name: "CLOUDFLARENET,US", CC: "US", Category: CatCDN, AlexaSites: 188, AlexaIP24s: 196, IP24s: 328, PaperMeanReplicas: 33},
	{ASN: 1280, Name: "ISC-AS,US", CC: "US", Category: CatDNS, IP24s: 13, PaperMeanReplicas: 23},
	{ASN: 6939, Name: "HURRICANE,US", CC: "US", Category: CatISP, CAIDARank: 19, IP24s: 4, PaperMeanReplicas: 21},
	{ASN: 36408, Name: "CDNETWORKSUS,US", CC: "US", Category: CatCDN, PaperMeanReplicas: 20},
	{ASN: 32934, Name: "FACEBOOK,US", CC: "US", Category: CatSocialNetwork, PaperMeanReplicas: 19},
	{ASN: 42909, Name: "COMMUNITYDNS,GB", CC: "GB", Category: CatDNS, PaperMeanReplicas: 19},
	{ASN: 36617, Name: "XGTLD,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 18},
	{ASN: 20144, Name: "L-ROOT,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 18},
	{ASN: 8075, Name: "MICROSOFT,US", CC: "US", Category: CatCloud, AlexaSites: 3, AlexaIP24s: 1, IP24s: 15, PaperMeanReplicas: 21},
	{ASN: 29216, Name: "I-ROOT,SE", CC: "SE", Category: CatDNS, PaperMeanReplicas: 17},
	{ASN: 7342, Name: "VERISIGN-INC,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 17},
	{ASN: 22822, Name: "LLNW,US", CC: "US", Category: CatCDN, PaperMeanReplicas: 16},
	{ASN: 33005, Name: "ARYAKA-ARIN,US", CC: "US", Category: CatCloud, PaperMeanReplicas: 16},
	{ASN: 714, Name: "APPLE-ENGINEERING,US", CC: "US", Category: CatCDN, IP24s: 6, PaperMeanReplicas: 17},
	{ASN: 30670, Name: "CEDEXIS,US", CC: "US", Category: CatSecurity, PaperMeanReplicas: 15},
	{ASN: 33438, Name: "HIGHWINDS3,US", CC: "US", Category: CatCDN, AlexaSites: 1, AlexaIP24s: 1, PaperMeanReplicas: 15},
	{ASN: 8674, Name: "NETNOD-IX,SE", CC: "SE", Category: CatDNS, PaperMeanReplicas: 14},
	{ASN: 36692, Name: "OPENDNS,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 16},
	{ASN: 42, Name: "WOODYNET-1,US", CC: "US", Category: CatDNS, IP24s: 14, PaperMeanReplicas: 14},
	{ASN: 41146, Name: "LGTLD,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 13},
	{ASN: 20634, Name: "LIECHTENSTEIN1,LI", CC: "LI", Category: CatUnknown, PaperMeanReplicas: 13},
	{ASN: 54113, Name: "FASTLY,US", CC: "US", Category: CatCDN, AlexaSites: 5, AlexaIP24s: 5, PaperMeanReplicas: 13},
	{ASN: 30081, Name: "CACHENETWORKS,US", CC: "US", Category: CatCDN, AlexaSites: 1, AlexaIP24s: 1, PaperMeanReplicas: 12},
	{ASN: 33047, Name: "INSTART,US", CC: "US", Category: CatCDN, AlexaSites: 1, AlexaIP24s: 1, PaperMeanReplicas: 12},
	{ASN: 62597, Name: "DNSCAST-AS,US", CC: "US", Category: CatDNS, IP24s: 15, PaperMeanReplicas: 12},
	{ASN: 15169, Name: "GOOGLE,US", CC: "US", Category: CatCloud, AlexaSites: 11, AlexaIP24s: 11, IP24s: 102, PaperMeanReplicas: 10},
	{ASN: 14153, Name: "EDGECAST-IR,US", CC: "US", Category: CatCDN, PaperMeanReplicas: 11},
	{ASN: 27, Name: "UMDNET,US", CC: "US", Category: CatUnknown, PaperMeanReplicas: 11},
	{ASN: 33517, Name: "DYNDNS,US", CC: "US", Category: CatDNS, IP24s: 10, PaperMeanReplicas: 11},
	{ASN: 62597 + 9000, Name: "NSONE,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 10},
	{ASN: 4249, Name: "EASYLINK4,US", CC: "US", Category: CatCloudMessaging, PaperMeanReplicas: 10},
	{ASN: 24018, Name: "YAHOO-AN2,US", CC: "US", Category: CatWebPortal, AlexaSites: 1, AlexaIP24s: 1, PaperMeanReplicas: 10},
	{ASN: 12008, Name: "ULTRADNS,US", CC: "US", Category: CatDNS, IP24s: 11, PaperMeanReplicas: 10},
	{ASN: 16276, Name: "OVH,FR", CC: "FR", Category: CatCloud, IP24s: 10, PaperMeanReplicas: 9},
	{ASN: 20634 + 1, Name: "LIECHTENSTEIN2,LI", CC: "LI", Category: CatUnknown, PaperMeanReplicas: 9},
	{ASN: 12041, Name: "AS-AFILIAS1,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 9},
	{ASN: 2635, Name: "AUTOMATTIC,US", CC: "US", Category: CatBlogging, AlexaSites: 1, AlexaIP24s: 1, IP24s: 10, PaperMeanReplicas: 9},
	{ASN: 3257, Name: "TINET-BACKBONE,DE", CC: "DE", Category: CatISPTier1, CAIDARank: 16, IP24s: 3, PaperMeanReplicas: 9},
	{ASN: 6461, Name: "ABOVENET-CUSTOMER,US", CC: "US", Category: CatISP, CAIDARank: 122, PaperMeanReplicas: 9},
	{ASN: 16509, Name: "AMAZON-02,US", CC: "US", Category: CatCloud, AlexaSites: 2, AlexaIP24s: 1, IP24s: 10, PaperMeanReplicas: 8},
	{ASN: 1273, Name: "CW,GB", CC: "GB", Category: CatISP, CAIDARank: 137, PaperMeanReplicas: 8},
	{ASN: 3356, Name: "LEVEL3,US", CC: "US", Category: CatISPTier1, CAIDARank: 1, IP24s: 2, PaperMeanReplicas: 8},
	{ASN: 15133, Name: "EDGECAST,US", CC: "US", Category: CatCDN, AlexaSites: 10, AlexaIP24s: 10, IP24s: 37, PaperMeanReplicas: 12},
	{ASN: 13414, Name: "TWITTER-NETWORK,US", CC: "US", Category: CatSocialNetwork, IP24s: 3, PaperMeanReplicas: 8},
	{ASN: 19551, Name: "INCAPSULA,US", CC: "US", Category: CatCDN, AlexaSites: 1, AlexaIP24s: 1, PaperMeanReplicas: 8},
	{ASN: 36619, Name: "AGTLD,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 8},
	{ASN: 18059, Name: "AUSREGISTRY-1,AU", CC: "AU", Category: CatDNS, PaperMeanReplicas: 8},
	{ASN: 29454, Name: "CENTRALNIC-A1,GB", CC: "GB", Category: CatDNS, PaperMeanReplicas: 8},
	{ASN: 174, Name: "COGENT-2149,US", CC: "US", Category: CatISP, CAIDARank: 2, IP24s: 2, PaperMeanReplicas: 7},
	{ASN: 36620, Name: "HGTLD,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 7},
	{ASN: 33439, Name: "HIGHWINDS4,US", CC: "US", Category: CatCDN, PaperMeanReplicas: 7},
	{ASN: 25152, Name: "K-ROOT-SERVER,NL", CC: "NL", Category: CatDNS, PaperMeanReplicas: 7},
	{ASN: 47786, Name: "NETRIPLEX01,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 7},
	{ASN: 15224, Name: "OMNITURE,US", CC: "US", Category: CatOnlineMarketing, PaperMeanReplicas: 7},
	{ASN: 36351, Name: "SOFTLAYER,US", CC: "US", Category: CatCloud, PaperMeanReplicas: 7},
	{ASN: 20446, Name: "WANGSU-US,US", CC: "US", Category: CatCDN, PaperMeanReplicas: 7},
	{ASN: 24019, Name: "YAHOO-FC,US", CC: "US", Category: CatWebPortal, PaperMeanReplicas: 7},
	{ASN: 40009, Name: "BITGRAVITY,US", CC: "US", Category: CatCDN, AlexaSites: 1, AlexaIP24s: 1, IP24s: 12, PaperMeanReplicas: 7},
	{ASN: 11537, Name: "ABILENE,US", CC: "US", Category: CatBackbone, PaperMeanReplicas: 6},
	{ASN: 62713, Name: "ADVAN-CAST,US", CC: "US", Category: CatUnknown, PaperMeanReplicas: 6},
	{ASN: 39570, Name: "ASATTLD,SE", CC: "SE", Category: CatDNS, PaperMeanReplicas: 6},
	{ASN: 8100, Name: "AS-QUADRANET,US", CC: "US", Category: CatCloud, PaperMeanReplicas: 6},
	{ASN: 6453, Name: "AS6453,US", CC: "US", Category: CatISPTier1, CAIDARank: 6, IP24s: 2, PaperMeanReplicas: 6},
	{ASN: 2686, Name: "ATT,EU", CC: "GB", Category: CatISP, CAIDARank: 24, IP24s: 2, PaperMeanReplicas: 6},
	{ASN: 29455, Name: "CENTRALNIC-A2,GB", CC: "GB", Category: CatDNS, PaperMeanReplicas: 6},
	{ASN: 209, Name: "CENTURYLINK-QWEST,US", CC: "US", Category: CatISPTier1, CAIDARank: 11, IP24s: 2, PaperMeanReplicas: 6},
	{ASN: 38719, Name: "CONEXIM-AS-AP,AU", CC: "AU", Category: CatCloud, PaperMeanReplicas: 6},
	{ASN: 36621, Name: "EGTLD,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 6},
	{ASN: 36622, Name: "KGTLD,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 6},
	{ASN: 44654, Name: "MNS-AS,NO", CC: "NO", Category: CatVideoConferencing, PaperMeanReplicas: 6},
	{ASN: 1921, Name: "NICAT,AT", CC: "AT", Category: CatDNS, PaperMeanReplicas: 6},
	{ASN: 64512 - 2, Name: "VITAL-DNS,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 6},
	{ASN: 64512 - 3, Name: "WHS-ANYCAST,US", CC: "US", Category: CatSecurity, PaperMeanReplicas: 6},
	{ASN: 36623, Name: "ZGTLD,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 6},
	{ASN: 14744, Name: "INTERNAP-BLK,US", CC: "US", Category: CatCloud, PaperMeanReplicas: 5},
	{ASN: 14743, Name: "NETAPP-ANYCAST,US", CC: "US", Category: CatWebAnalytics, PaperMeanReplicas: 5},
	{ASN: 1239, Name: "SPRINTLINK,US", CC: "US", Category: CatISPTier1, CAIDARank: 13, IP24s: 2, PaperMeanReplicas: 5},
	{ASN: 18060, Name: "AUSREGISTRY-2,AU", CC: "AU", Category: CatDNS, PaperMeanReplicas: 5},
	{ASN: 210, Name: "CENTURYLINK-LEGACY,US", CC: "US", Category: CatISP, PaperMeanReplicas: 5},
	{ASN: 64512 - 4, Name: "DNSIMPLE,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 5},
	{ASN: 33518, Name: "DYN-HC,US", CC: "US", Category: CatDNS, PaperMeanReplicas: 5},
	{ASN: 4250, Name: "EASYLINK2,US", CC: "US", Category: CatCloudMessaging, PaperMeanReplicas: 5},
	{ASN: 62714, Name: "EDNS,CA", CC: "CA", Category: CatDNS, PaperMeanReplicas: 5},
	{ASN: 62715, Name: "ESGOB-ANYCAST,ES", CC: "ES", Category: CatDNS, PaperMeanReplicas: 5},
	{ASN: 12824, Name: "HOMEPL-AS,PL", CC: "PL", Category: CatCloud, PaperMeanReplicas: 5},
	{ASN: 14413, Name: "LINKEDIN,US", CC: "US", Category: CatSocialNetwork, AlexaSites: 1, AlexaIP24s: 1, IP24s: 1, PaperMeanReplicas: 5},
	{ASN: 18608, Name: "MASERGY,US", CC: "US", Category: CatCloud, PaperMeanReplicas: 5},
	{ASN: 31377, Name: "MEDIAMATH-INC,US", CC: "US", Category: CatADTech, PaperMeanReplicas: 5},
	{ASN: 43531, Name: "MII-2,GB", CC: "GB", Category: CatCDN, PaperMeanReplicas: 5},
	{ASN: 43532, Name: "MII-XPC,US", CC: "US", Category: CatCDN, PaperMeanReplicas: 5},
	{ASN: 13768, Name: "PEER1,US", CC: "US", Category: CatCloud, PaperMeanReplicas: 5},
	{ASN: 48284, Name: "PHH-AS,DE", CC: "DE", Category: CatCDN, PaperMeanReplicas: 5},
	{ASN: 62716, Name: "PRETECS,CA", CC: "CA", Category: CatCDN, PaperMeanReplicas: 5},
	{ASN: 32787, Name: "PROLEXIC,US", CC: "US", Category: CatSecurity, AlexaSites: 10, AlexaIP24s: 10, IP24s: 21, PaperMeanReplicas: 8},
	{ASN: 36281, Name: "QUANTCAST,US", CC: "US", Category: CatWebAnalytics, PaperMeanReplicas: 5},
	{ASN: 18705, Name: "RIMBLACKBERRY,CA", CC: "CA", Category: CatTelecomVendor, PaperMeanReplicas: 5},
	{ASN: 39392, Name: "SUPERNETWORK,CZ", CC: "CZ", Category: CatCloud, PaperMeanReplicas: 5},
	{ASN: 62717, Name: "UNOVA-1,CA", CC: "CA", Category: CatDNS, PaperMeanReplicas: 5},
	{ASN: 39743, Name: "VOXILITY,RO", CC: "RO", Category: CatCloud, PaperMeanReplicas: 5},
	{ASN: 62718, Name: "ZVONKOVA-AS,RU", CC: "RU", Category: CatUnknown, PaperMeanReplicas: 5},
}

// Census-wide totals from Fig. 10 of the paper.
const (
	// TotalASes is the number of ASes with any detected anycast /24.
	TotalASes = 346
	// TotalIP24s is the number of anycast /24s across all ASes.
	TotalIP24s = 1696
	// Top100IP24s is the number of anycast /24s across the top-100 ASes
	// (those with at least 5 replicas).
	Top100IP24s = 897
)

// Registry is an immutable AS database.
type Registry struct {
	list  []AS
	byASN map[int]int
}

// Default returns the census AS registry: the transcribed top-100 plus a
// deterministic synthetic tail of 246 ASes, with /24 footprints matching the
// paper's totals exactly (1,696 /24s overall, 897 in the top-100). A
// Registry is immutable, so it is built on the first call and every caller
// of the process shares it.
func Default() *Registry { return defaultRegistry() }

var defaultRegistry = sync.OnceValue(buildDefault)

// buildDefault builds the registry Default returns.
func buildDefault() *Registry {
	rng := rand.New(rand.NewSource(2015)) // deterministic: same registry every run

	list := make([]AS, len(top100))
	copy(list, top100)

	// Fill unspecified top-100 /24 footprints so the group sums to 897.
	explicit := 0
	var autos []int
	for i := range list {
		list[i].Top100 = true
		if list[i].IP24s == 0 {
			autos = append(autos, i)
		} else {
			explicit += list[i].IP24s
		}
	}
	remaining := Top100IP24s - explicit
	// Roughly half of all ASes have exactly one /24 (Fig. 13); the rest of
	// the budget is spread with a skewed distribution, uncorrelated with
	// the replica footprint (Sec. 4.2 reports a Pearson of only 0.35).
	base := make([]int, len(autos))
	for i := range base {
		base[i] = 1
	}
	remaining -= len(autos)
	for remaining > 0 {
		i := rng.Intn(len(autos))
		// Skewed increments: mostly +1, occasionally a burst.
		inc := 1
		if rng.Float64() < 0.15 {
			inc = 2 + rng.Intn(4)
		}
		if inc > remaining {
			inc = remaining
		}
		// Keep auto-filled footprints below the named large deployments.
		if base[i]+inc > 16 {
			continue
		}
		base[i] += inc
		remaining -= inc
	}
	for k, i := range autos {
		list[i].IP24s = base[k]
	}

	// Synthesize the 246-AS tail: deployments with fewer than 5 detected
	// replicas (2-4), totalling 1696-897=799 /24s.
	tail := TotalASes - len(top100)
	tailBudget := TotalIP24s - Top100IP24s
	ccs := []string{"US", "DE", "GB", "FR", "NL", "JP", "BR", "AU", "CA", "SE", "IT", "ES", "PL", "RU", "IN", "SG", "ZA", "KR", "CH", "AT"}
	cats := []Category{CatDNS, CatDNS, CatDNS, CatCloud, CatCloud, CatCDN, CatISP, CatUnknown, CatUnknown, CatSecurity}
	// Half of the tail has exactly one /24.
	counts := make([]int, tail)
	ones := tail / 2
	for i := 0; i < ones; i++ {
		counts[i] = 1
	}
	left := tailBudget - ones
	for i := ones; i < tail; i++ {
		counts[i] = 2
		left -= 2
	}
	for left > 0 {
		i := ones + rng.Intn(tail-ones)
		if counts[i] >= 14 {
			continue
		}
		counts[i]++
		left--
	}
	rng.Shuffle(tail, func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })
	for i := 0; i < tail; i++ {
		list = append(list, AS{
			ASN:               64512 + i,
			Name:              synthName(rng, i) + "," + ccs[i%len(ccs)],
			CC:                ccs[i%len(ccs)],
			Category:          cats[rng.Intn(len(cats))],
			IP24s:             counts[i],
			PaperMeanReplicas: 2 + rng.Intn(2), // 2..3: well below the top-100 cut
		})
	}

	byASN := make(map[int]int, len(list))
	for i, a := range list {
		if _, dup := byASN[a.ASN]; dup {
			panic(fmt.Sprintf("asdb: duplicate ASN %d", a.ASN))
		}
		byASN[a.ASN] = i
	}
	return &Registry{list: list, byASN: byASN}
}

var synthA = []string{"NORTH", "BLUE", "OPEN", "FAST", "EDGE", "NET", "GLOBAL", "PRIME", "CORE", "ZEN", "APEX", "NOVA", "TERRA", "HYPER", "QUAD"}
var synthB = []string{"CAST", "DNS", "LINK", "WAVE", "GRID", "NODE", "PATH", "ROUTE", "HOST", "CLOUD", "TELECOM", "NETWORKS", "IX", "SYS", "DATA"}

// synthName produces a deterministic WHOIS-style name for a tail AS.
func synthName(rng *rand.Rand, i int) string {
	return fmt.Sprintf("%s%s-%02d", synthA[rng.Intn(len(synthA))], synthB[rng.Intn(len(synthB))], i%100)
}

// All returns every AS, top-100 first in Fig. 9 order. The slice must not be
// modified.
func (r *Registry) All() []AS { return r.list }

// Len returns the number of ASes.
func (r *Registry) Len() int { return len(r.list) }

// Top100 returns the paper's top-100 list in Fig. 9 order (decreasing
// geographical footprint).
func (r *Registry) Top100() []AS { return r.list[:len(top100)] }

// ByASN looks up an AS by number.
func (r *Registry) ByASN(asn int) (AS, bool) {
	i, ok := r.byASN[asn]
	if !ok {
		return AS{}, false
	}
	return r.list[i], true
}

// ByName looks up an AS by its WHOIS-style name.
func (r *Registry) ByName(name string) (AS, bool) {
	for _, a := range r.list {
		if a.Name == name {
			return a, true
		}
	}
	return AS{}, false
}

// MustByName is ByName that panics on a miss; used when wiring the paper's
// named deployments, where absence is a programming error.
func (r *Registry) MustByName(name string) AS {
	a, ok := r.ByName(name)
	if !ok {
		panic("asdb: unknown AS " + name)
	}
	return a
}

// TotalFootprint returns the sum of anycast /24 counts over all ASes.
func (r *Registry) TotalFootprint() int {
	n := 0
	for _, a := range r.list {
		n += a.IP24s
	}
	return n
}

// CategoryBreakdown returns, for the given AS set, the fraction of ASes per
// coarse category (Fig. 11).
func CategoryBreakdown(ases []AS) map[string]float64 {
	if len(ases) == 0 {
		return nil
	}
	counts := make(map[string]int)
	for _, a := range ases {
		counts[a.Category.Coarse()]++
	}
	out := make(map[string]float64, len(counts))
	for k, v := range counts {
		out[k] = float64(v) / float64(len(ases))
	}
	return out
}
