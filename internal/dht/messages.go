package dht

// RPC message types exchanged between DHT nodes. Each implements
// netsim.Sizer so the simulator charges realistic wire bytes.

type pingReq struct{ From Contact }

type pingResp struct{ From Contact }

func (pingReq) WireSize() int  { return contactWireSize }
func (pingResp) WireSize() int { return contactWireSize }

type findNodeReq struct {
	From   Contact
	Target Key
}

type findNodeResp struct {
	Contacts []Contact
}

func (findNodeReq) WireSize() int { return contactWireSize + KeySize }
func (r findNodeResp) WireSize() int {
	return 8 + contactWireSize*len(r.Contacts)
}

// Closer, on a write request, asks the replier for its K closest to Key,
// as FIND_NODE would: a write that walks while it stores needs them, a
// wave on a converged walk does not. It rides the request's framing.
type storeReq struct {
	From   Contact
	Key    Key
	Value  []byte
	Seq    uint64 // versioned records: higher sequence wins
	Closer bool
}

type storeResp struct {
	OK       bool
	Contacts []Contact // the replier's K closest to Key, when asked
}

func (r storeReq) WireSize() int  { return contactWireSize + KeySize + 8 + len(r.Value) }
func (r storeResp) WireSize() int { return 8 + contactWireSize*len(r.Contacts) }

type findValueReq struct {
	From Contact
	Key  Key
}

type findValueResp struct {
	Found    bool
	Value    []byte
	Seq      uint64
	Contacts []Contact // closer contacts when not found
}

func (findValueReq) WireSize() int { return contactWireSize + KeySize }
func (r findValueResp) WireSize() int {
	return 16 + len(r.Value) + contactWireSize*len(r.Contacts)
}

type addProviderReq struct {
	From     Contact
	Key      Key
	Provider Contact
	Closer   bool
}

type addProviderResp struct {
	OK       bool
	Contacts []Contact // the replier's K closest to Key, when asked
}

func (addProviderReq) WireSize() int    { return 2*contactWireSize + KeySize }
func (r addProviderResp) WireSize() int { return 8 + contactWireSize*len(r.Contacts) }

type getProvidersReq struct {
	From Contact
	Key  Key
}

type getProvidersResp struct {
	Providers []Contact
	Contacts  []Contact
}

func (getProvidersReq) WireSize() int { return contactWireSize + KeySize }
func (r getProvidersResp) WireSize() int {
	return 8 + contactWireSize*(len(r.Providers)+len(r.Contacts))
}

// reply is an answer a walk continues from: every lookup-bearing response
// names the replier's contacts nearest the key.
type reply interface{ closer() []Contact }

func (r findNodeResp) closer() []Contact     { return r.Contacts }
func (r storeResp) closer() []Contact        { return r.Contacts }
func (r findValueResp) closer() []Contact    { return r.Contacts }
func (r addProviderResp) closer() []Contact  { return r.Contacts }
func (r getProvidersResp) closer() []Contact { return r.Contacts }
