type t = {
  ring : Trace.t;
  ledger : Ledger.t;
  reqtrace : Reqtrace.t;
  on : bool;
  recording : bool;
}

let create ?(ring = Trace.null) ?(ledger = Ledger.null)
    ?(reqtrace = Reqtrace.null) () =
  let recording = Trace.enabled ring in
  let on = recording || Ledger.enabled ledger || Reqtrace.enabled reqtrace in
  { ring; ledger; reqtrace; on; recording }

let null = create ()
let on t = t.on
let recording t = t.recording
let ring t = t.ring
let ledger t = t.ledger
let reqtrace t = t.reqtrace

let emit t ~time ~stream ev =
  Trace.emit t.ring ~time ~stream ev;
  Ledger.observe t.ledger ~time ~stream ev;
  Reqtrace.observe t.reqtrace ~time ~stream ev
