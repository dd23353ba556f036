(* Per-page lifecycle ledger with causal attribution to directive sites.

   The ledger consumes the same typed events the Trace ring sees, but at the
   emit point rather than by replaying the ring, so ring capacity and
   overflow never truncate it.  For every (owner pid, vpn) it tracks a small
   lifecycle state machine and charges each transition to the static
   directive site (Pir.d_tag) that caused it; the residue is the wasted-work
   taxonomy the paper derives by hand.

   Store: page state lives in dense per-pid int arrays indexed by vpn, one
   immediate int per page, grown geometrically.  The key domain is what the
   OS produces: pids are small non-negative stream ids, and vpns are dense
   from 0 because address spaces hand out segments from [next_vpn].  Site
   rows sit in an array indexed by [site + 1] (the unattributed row first),
   so [observe] allocates nothing once the arrays have grown.  A negative
   pid or vpn keeps no page state; a site below [Trace.no_site] is charged
   to the unattributed row.

   Determinism: the ledger is driven purely by simulated-time events inside
   one experiment cell, performs no Engine interaction, and its summary
   lists site rows in ascending site order — so the output is
   byte-identical at any --jobs. *)

(* A page state is one packed int: a 4-bit [code] with [slot site] above
   it.  0 means "never seen"; the first lookup of a page turns it into
   Not_resident, so the number of non-zero words is [ls_pages_tracked]. *)
type tag =
  | Not_resident
  | Pf_sent  (* intent accepted by the run-time layer *)
  | Pf_inflight  (* OS started the asynchronous fetch *)
  | Prefetched
      (* resident via a completed prefetch, not yet referenced; the fetch's
         ns sits in the parallel [pf_ns] array *)
  | Resident
  | Released  (* release forwarded to the OS, not yet freed *)
  | Freed  (* on the free list via the releaser *)
  | Freed_daemon  (* on the free list via a daemon steal *)
  | Gone  (* freed frame was reused; contents only on swap *)

let code = function
  | Not_resident -> 1
  | Pf_sent -> 2
  | Pf_inflight -> 3
  | Prefetched -> 4
  | Resident -> 5
  | Released -> 6
  | Freed -> 7
  | Freed_daemon -> 8
  | Gone -> 9

(* Indexed by [code]; a never-seen word (0) reads as Not_resident. *)
let tags =
  [| Not_resident; Not_resident; Pf_sent; Pf_inflight; Prefetched; Resident;
     Released; Freed; Freed_daemon; Gone |]

(* Row index of a site: [Trace.no_site] (and anything below it) is 0. *)
let[@inline] slot site = if site < 0 then 0 else site + 1
let[@inline] pack tag site = (slot site lsl 4) lor code tag
let[@inline] tag_of w = tags.(w land 0xf)
let[@inline] site_of w = (w lsr 4) - 1
let not_resident = pack Not_resident Trace.no_site
let resident = pack Resident Trace.no_site

type site_stats = {
  mutable pf_sent : int;
  mutable pf_issued : int;
  mutable pf_dropped : int;
  mutable pf_raced : int;
  mutable pf_done : int;
  mutable pf_referenced : int;
  mutable pf_useless : int;
  mutable pf_late : int;
  mutable pf_saved_ns : int;
  mutable rel_hints : int;
  mutable rel_filtered : int;
  mutable rel_buffered : int;
  mutable rel_stale : int;
  mutable rel_sent : int;
  mutable rel_skipped : int;
  mutable rel_freed : int;
  mutable rel_rescued : int;
  mutable rel_refaulted : int;
  mutable rel_reused : int;
  mutable rel_unreclaimed : int;
  mutable priority_sum : int;
  mutable priority_n : int;
}

let fresh_stats () =
  {
    pf_sent = 0;
    pf_issued = 0;
    pf_dropped = 0;
    pf_raced = 0;
    pf_done = 0;
    pf_referenced = 0;
    pf_useless = 0;
    pf_late = 0;
    pf_saved_ns = 0;
    rel_hints = 0;
    rel_filtered = 0;
    rel_buffered = 0;
    rel_stale = 0;
    rel_sent = 0;
    rel_skipped = 0;
    rel_freed = 0;
    rel_rescued = 0;
    rel_refaulted = 0;
    rel_reused = 0;
    rel_unreclaimed = 0;
    priority_sum = 0;
    priority_n = 0;
  }

(* Shared placeholder for a site with no row yet; never written.  A row
   comes into being on a site's first charge, as it always has. *)
let absent = fresh_stats ()

(* Site rows by [slot]. *)
type sites = { mutable rows : site_stats array }

let site_stats tbl site =
  let i = slot site in
  let n = Array.length tbl.rows in
  if i >= n then
    tbl.rows <-
      Array.append tbl.rows (Array.make (max (i + 1) (2 * n) - n) absent);
  let s = tbl.rows.(i) in
  if s != absent then s
  else begin
    let s = fresh_stats () in
    tbl.rows.(i) <- s;
    s
  end

type t = {
  l_enabled : bool;
  mutable pages : int array array;  (* pid -> vpn -> packed state *)
  mutable pf_ns : int array array;  (* pid -> vpn -> a Prefetched page's ns *)
  mutable pages_tracked : int;
  sites : sites;
  (* Global tallies, used to reconcile against Vm_stats. *)
  mutable hard_faults : int;
  mutable soft_faults : int;
  mutable validation_faults : int;
  mutable zero_fills : int;
  mutable rescues : int;
  mutable prefetches_issued : int;
  mutable prefetches_dropped : int;
  mutable releases_freed : int;
  mutable releases_skipped : int;
  (* Taxonomy totals (also derivable from the site table; kept as running
     counters so the summary is O(sites)). *)
  mutable useless_prefetches : int;
  mutable late_prefetches : int;
  mutable early_rescued : int;
  mutable early_refaulted : int;
  mutable useful_releases : int;
  (* Cross-tier transitions (tiered backing store; zero without --tiers). *)
  mutable tier_demotions : int;
  mutable tier_fetches : int;
  mutable tier_failovers : int;
  mutable tier_rescues : int;
}

let make enabled =
  {
    l_enabled = enabled;
    pages = [||];
    pf_ns = [||];
    pages_tracked = 0;
    sites = { rows = [||] };
    hard_faults = 0;
    soft_faults = 0;
    validation_faults = 0;
    zero_fills = 0;
    rescues = 0;
    prefetches_issued = 0;
    prefetches_dropped = 0;
    releases_freed = 0;
    releases_skipped = 0;
    useless_prefetches = 0;
    late_prefetches = 0;
    early_rescued = 0;
    early_refaulted = 0;
    useful_releases = 0;
    tier_demotions = 0;
    tier_fetches = 0;
    tier_failovers = 0;
    tier_rescues = 0;
  }

let create () = make true
let null = make false
let enabled t = t.l_enabled
let refaults t = t.early_refaulted
let early_rescues t = t.early_rescued

(* The state row of [pid], grown (with its [pf_ns] twin) to hold [vpn]. *)
let row t ~pid ~vpn =
  let np = Array.length t.pages in
  if pid >= np then begin
    let grow a =
      Array.append a (Array.make (max (pid + 1) (2 * np) - np) [||])
    in
    t.pages <- grow t.pages;
    t.pf_ns <- grow t.pf_ns
  end;
  let a = t.pages.(pid) in
  let n = Array.length a in
  if vpn < n then a
  else begin
    let grow a =
      let b = Array.make (max (max (vpn + 1) 64) (2 * n)) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    let a = grow a in
    t.pages.(pid) <- a;
    t.pf_ns.(pid) <- grow t.pf_ns.(pid);
    a
  end

let[@inline] in_domain ~pid ~vpn = pid >= 0 && vpn >= 0

(* The packed state of a page, which is tracked from its first lookup on.
   An out-of-domain key reads as Not_resident and is never stored. *)
let get t ~pid ~vpn =
  if not (in_domain ~pid ~vpn) then not_resident
  else begin
    let a = row t ~pid ~vpn in
    let w = a.(vpn) in
    if w <> 0 then w
    else begin
      a.(vpn) <- not_resident;
      t.pages_tracked <- t.pages_tracked + 1;
      not_resident
    end
  end

let set t ~pid ~vpn w =
  if in_domain ~pid ~vpn then begin
    let a = row t ~pid ~vpn in
    if a.(vpn) = 0 then t.pages_tracked <- t.pages_tracked + 1;
    a.(vpn) <- w
  end

(* A prefetched-but-unreferenced page leaving residency (or being released)
   makes its prefetch useless; charge the prefetching site. *)
let charge_useless t site =
  let s = site_stats t.sites site in
  s.pf_useless <- s.pf_useless + 1;
  t.useless_prefetches <- t.useless_prefetches + 1

(* A reference arriving at a page a directive released earlier: cheap if the
   page is still on the free list (rescue), expensive if the frame is gone
   (hard refault).  Charge the releasing site. *)
let charge_rescued t site =
  let s = site_stats t.sites site in
  s.rel_rescued <- s.rel_rescued + 1;
  t.early_rescued <- t.early_rescued + 1

let charge_refaulted t site =
  let s = site_stats t.sites site in
  s.rel_refaulted <- s.rel_refaulted + 1;
  t.early_refaulted <- t.early_refaulted + 1

(* A touch that finds the page mapped (soft or validation fault).  A page
   still Prefetched profits its site even if it was invalidated before
   validation.  Only an in-domain page can read as Prefetched, so its
   [pf_ns] row exists. *)
let referenced t ~pid ~vpn =
  let w = get t ~pid ~vpn in
  if tag_of w = Prefetched then begin
    let s = site_stats t.sites (site_of w) in
    s.pf_referenced <- s.pf_referenced + 1;
    s.pf_saved_ns <- s.pf_saved_ns + t.pf_ns.(pid).(vpn)
  end;
  set t ~pid ~vpn resident

let observe t ~time:_ ~stream ev =
  if t.l_enabled then
    match (ev : Trace.event) with
    (* ---- demand faults (stream = faulting pid) ---- *)
    | Hard_fault { vpn } ->
        t.hard_faults <- t.hard_faults + 1;
        let w = get t ~pid:stream ~vpn in
        (match tag_of w with
        | Pf_sent | Pf_inflight ->
            let s = site_stats t.sites (site_of w) in
            s.pf_late <- s.pf_late + 1;
            t.late_prefetches <- t.late_prefetches + 1
        | Released | Freed | Gone ->
            let site = site_of w in
            if site <> Trace.no_site then charge_refaulted t site
        | Prefetched -> charge_useless t (site_of w)
        | Not_resident | Resident | Freed_daemon -> ());
        set t ~pid:stream ~vpn resident
    | Soft_fault { vpn } ->
        t.soft_faults <- t.soft_faults + 1;
        referenced t ~pid:stream ~vpn
    | Validation_fault { vpn } ->
        t.validation_faults <- t.validation_faults + 1;
        referenced t ~pid:stream ~vpn
    | Zero_fill { vpn } ->
        t.zero_fills <- t.zero_fills + 1;
        set t ~pid:stream ~vpn resident
    | Rescue { vpn; for_prefetch; site } ->
        t.rescues <- t.rescues + 1;
        let w = get t ~pid:stream ~vpn in
        (* [site] is the site whose release freed the frame (no_site for a
           daemon steal); the ledger's own state agrees when the rescue is
           attributable. *)
        (match tag_of w with
        | Freed | Released | Gone ->
            let s = if site <> Trace.no_site then site else site_of w in
            if s <> Trace.no_site then charge_rescued t s
        | _ -> if site <> Trace.no_site then charge_rescued t site);
        (* A demand rescue leaves the page resident; a prefetch rescue will
           be followed by Prefetch_done, which takes the state over. *)
        if not for_prefetch then set t ~pid:stream ~vpn resident
    (* ---- prefetch pipeline (stream = prefetching pid) ---- *)
    | Rt_prefetch_sent { vpn; site } ->
        let s = site_stats t.sites site in
        s.pf_sent <- s.pf_sent + 1;
        (match tag_of (get t ~pid:stream ~vpn) with
        | Not_resident | Freed | Freed_daemon | Gone | Pf_sent | Pf_inflight
        | Released ->
            set t ~pid:stream ~vpn (pack Pf_sent site)
        | Resident | Prefetched -> ())
    | Prefetch_issued { vpn; site } ->
        t.prefetches_issued <- t.prefetches_issued + 1;
        let s = site_stats t.sites site in
        s.pf_issued <- s.pf_issued + 1;
        set t ~pid:stream ~vpn (pack Pf_inflight site)
    | Prefetch_dropped { vpn; site } ->
        t.prefetches_dropped <- t.prefetches_dropped + 1;
        let s = site_stats t.sites site in
        s.pf_dropped <- s.pf_dropped + 1;
        (match tag_of (get t ~pid:stream ~vpn) with
        | Pf_sent | Pf_inflight -> set t ~pid:stream ~vpn not_resident
        | _ -> ())
    | Prefetch_raced { vpn; site } ->
        let s = site_stats t.sites site in
        s.pf_raced <- s.pf_raced + 1;
        (match tag_of (get t ~pid:stream ~vpn) with
        | Pf_sent | Pf_inflight -> set t ~pid:stream ~vpn resident
        | _ -> ())
    | Prefetch_done { vpn; site; ns } ->
        let s = site_stats t.sites site in
        s.pf_done <- s.pf_done + 1;
        set t ~pid:stream ~vpn (pack Prefetched site);
        if in_domain ~pid:stream ~vpn then t.pf_ns.(stream).(vpn) <- ns
    (* ---- release pipeline ---- *)
    | Rt_release_hint { vpn = _; site; priority } ->
        let s = site_stats t.sites site in
        s.rel_hints <- s.rel_hints + 1;
        s.priority_sum <- s.priority_sum + priority;
        s.priority_n <- s.priority_n + 1
    | Rt_release_filtered { site; _ } ->
        let s = site_stats t.sites site in
        s.rel_filtered <- s.rel_filtered + 1
    | Rt_release_buffered { tag; _ } ->
        let s = site_stats t.sites tag in
        s.rel_buffered <- s.rel_buffered + 1
    | Rt_stale_dropped { site; _ } ->
        let s = site_stats t.sites site in
        s.rel_stale <- s.rel_stale + 1
    | Rt_release_sent { vpn; site } ->
        let s = site_stats t.sites site in
        s.rel_sent <- s.rel_sent + 1;
        let w = get t ~pid:stream ~vpn in
        (match tag_of w with
        | Prefetched ->
            charge_useless t (site_of w);
            set t ~pid:stream ~vpn (pack Released site)
        | Resident | Not_resident | Released ->
            set t ~pid:stream ~vpn (pack Released site)
        | _ -> ())
    | Release_skipped { vpn; owner; site } ->
        t.releases_skipped <- t.releases_skipped + 1;
        let s = site_stats t.sites site in
        s.rel_skipped <- s.rel_skipped + 1;
        set t ~pid:owner ~vpn resident
    | Releaser_free { vpn; owner; site } ->
        t.releases_freed <- t.releases_freed + 1;
        let s = site_stats t.sites site in
        s.rel_freed <- s.rel_freed + 1;
        set t ~pid:owner ~vpn (pack Freed site)
    | Daemon_steal { vpn; owner } ->
        let w = get t ~pid:owner ~vpn in
        if tag_of w = Prefetched then charge_useless t (site_of w);
        set t ~pid:owner ~vpn (pack Freed_daemon Trace.no_site)
    | Daemon_invalidate _ | Writeback_complete _ -> ()
    | Frame_reused { vpn; owner } ->
        let w = get t ~pid:owner ~vpn in
        (match tag_of w with
        | Freed ->
            let site = site_of w in
            if site <> Trace.no_site then begin
              let s = site_stats t.sites site in
              s.rel_reused <- s.rel_reused + 1;
              t.useful_releases <- t.useful_releases + 1
            end;
            set t ~pid:owner ~vpn (pack Gone site)
        | Freed_daemon -> set t ~pid:owner ~vpn not_resident
        | _ -> ())
    (* ---- cross-tier transitions (tiered backing store) ---- *)
    | Tier_demote _ -> t.tier_demotions <- t.tier_demotions + 1
    | Tier_fetch _ -> t.tier_fetches <- t.tier_fetches + 1
    | Tier_failover _ -> t.tier_failovers <- t.tier_failovers + 1
    | Tier_rescue _ -> t.tier_rescues <- t.tier_rescues + 1
    (* ---- everything else is not page-lifecycle material ---- *)
    | Release_requested _ | Rt_release_issued _ | Rt_release_drained _
    | Disk_io _ | Free_depth _ | Rss_sample _ | Upper_limit_sample _
    | Queue_depth _ | Phase_begin _ | Phase_end _ | Chaos_disk_fault _
    | Chaos_stall _ | Chaos_drop_directive _ | Chaos_pressure _
    | Chaos_pressure_end _ | Governor_transition _ | Tier_timeout _
    | Breaker_transition _ | Alert_fire _ | Alert_clear _ ->
        ()

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

type site_row = {
  sr_site : int;
  sr_pf_sent : int;
  sr_pf_issued : int;
  sr_pf_dropped : int;
  sr_pf_raced : int;
  sr_pf_done : int;
  sr_pf_referenced : int;
  sr_pf_useless : int;
  sr_pf_late : int;
  sr_pf_saved_ns : int;
  sr_rel_hints : int;
  sr_rel_filtered : int;
  sr_rel_buffered : int;
  sr_rel_stale : int;
  sr_rel_sent : int;
  sr_rel_skipped : int;
  sr_rel_freed : int;
  sr_rel_rescued : int;
  sr_rel_refaulted : int;
  sr_rel_reused : int;
  sr_rel_unreclaimed : int;
  sr_priority_mean : float;  (* mean Eq. 2 priority of this site's hints *)
  sr_refault_pct : float;  (* (rescued + refaulted) / freed, percent *)
}

type summary = {
  ls_sites : site_row list;  (* ascending site id; no_site row first *)
  ls_pages_tracked : int;
  ls_useless_prefetches : int;
  ls_late_prefetches : int;
  ls_early_rescued : int;
  ls_early_refaulted : int;
  ls_useful_releases : int;
  ls_unnecessary_releases : int;
  ls_hard_faults : int;
  ls_soft_faults : int;
  ls_validation_faults : int;
  ls_zero_fills : int;
  ls_rescues : int;
  ls_prefetches_issued : int;
  ls_prefetches_dropped : int;
  ls_releases_freed : int;
  ls_releases_skipped : int;
  ls_tier_demotions : int;
  ls_tier_fetches : int;
  ls_tier_failovers : int;
  ls_tier_rescues : int;
}

(* Close out the run: pages still sitting in a terminal-ish state become
   taxonomy residue.  Charges go to a copy of the site table so [summarize]
   is safe to call more than once (it never mutates the live ledger). *)
let summarize t =
  (* [{ s with ... }] forces a copy of each mutable row. *)
  let copy s = if s == absent then absent else { s with pf_sent = s.pf_sent } in
  let final = { rows = Array.map copy t.sites.rows } in
  let useless = ref t.useless_prefetches in
  let unnecessary = ref 0 in
  Array.iter
    (Array.iter (fun w ->
         match tag_of w with
         | Prefetched ->
             let s = site_stats final (site_of w) in
             s.pf_useless <- s.pf_useless + 1;
             incr useless
         | Freed ->
             (* never rescued, never refaulted, never reused: the free did no
                work for anybody *)
             let site = site_of w in
             if site <> Trace.no_site then begin
               let s = site_stats final site in
               s.rel_unreclaimed <- s.rel_unreclaimed + 1
             end;
             incr unnecessary
         | _ -> ()))
    t.pages;
  let row site s =
    {
      sr_site = site;
      sr_pf_sent = s.pf_sent;
      sr_pf_issued = s.pf_issued;
      sr_pf_dropped = s.pf_dropped;
      sr_pf_raced = s.pf_raced;
      sr_pf_done = s.pf_done;
      sr_pf_referenced = s.pf_referenced;
      sr_pf_useless = s.pf_useless;
      sr_pf_late = s.pf_late;
      sr_pf_saved_ns = s.pf_saved_ns;
      sr_rel_hints = s.rel_hints;
      sr_rel_filtered = s.rel_filtered;
      sr_rel_buffered = s.rel_buffered;
      sr_rel_stale = s.rel_stale;
      sr_rel_sent = s.rel_sent;
      sr_rel_skipped = s.rel_skipped;
      sr_rel_freed = s.rel_freed;
      sr_rel_rescued = s.rel_rescued;
      sr_rel_refaulted = s.rel_refaulted;
      sr_rel_reused = s.rel_reused;
      sr_rel_unreclaimed = s.rel_unreclaimed;
      sr_priority_mean =
        (if s.priority_n = 0 then 0.
         else float_of_int s.priority_sum /. float_of_int s.priority_n);
      sr_refault_pct =
        (if s.rel_freed = 0 then 0.
         else
           100.
           *. float_of_int (s.rel_rescued + s.rel_refaulted)
           /. float_of_int s.rel_freed);
    }
  in
  (* Slot order is ascending site order, the unattributed row first. *)
  let rows = ref [] in
  for i = Array.length final.rows - 1 downto 0 do
    let s = final.rows.(i) in
    if s != absent then rows := row (i - 1) s :: !rows
  done;
  {
    ls_sites = !rows;
    ls_pages_tracked = t.pages_tracked;
    ls_useless_prefetches = !useless;
    ls_late_prefetches = t.late_prefetches;
    ls_early_rescued = t.early_rescued;
    ls_early_refaulted = t.early_refaulted;
    ls_useful_releases = t.useful_releases;
    ls_unnecessary_releases = !unnecessary;
    ls_hard_faults = t.hard_faults;
    ls_soft_faults = t.soft_faults;
    ls_validation_faults = t.validation_faults;
    ls_zero_fills = t.zero_fills;
    ls_rescues = t.rescues;
    ls_prefetches_issued = t.prefetches_issued;
    ls_prefetches_dropped = t.prefetches_dropped;
    ls_releases_freed = t.releases_freed;
    ls_releases_skipped = t.releases_skipped;
    ls_tier_demotions = t.tier_demotions;
    ls_tier_fetches = t.tier_fetches;
    ls_tier_failovers = t.tier_failovers;
    ls_tier_rescues = t.tier_rescues;
  }

let empty_summary = summarize null

(* Structural invariants on a summary; used by the qcheck legality property:
   whatever the event interleaving, [observe] must keep these true. *)
let invariants_ok sum =
  let row_ok r =
    r.sr_pf_sent >= 0 && r.sr_pf_issued >= 0 && r.sr_pf_dropped >= 0
    && r.sr_pf_raced >= 0 && r.sr_pf_done >= 0 && r.sr_pf_referenced >= 0
    && r.sr_pf_useless >= 0 && r.sr_pf_late >= 0 && r.sr_pf_saved_ns >= 0
    && r.sr_rel_hints >= 0 && r.sr_rel_filtered >= 0 && r.sr_rel_buffered >= 0
    && r.sr_rel_stale >= 0 && r.sr_rel_sent >= 0 && r.sr_rel_skipped >= 0
    && r.sr_rel_freed >= 0 && r.sr_rel_rescued >= 0 && r.sr_rel_refaulted >= 0
    && r.sr_rel_reused >= 0 && r.sr_rel_unreclaimed >= 0
    (* a page can only be reused or left unreclaimed after being freed *)
    && r.sr_rel_reused <= r.sr_rel_freed
    && r.sr_rel_unreclaimed <= r.sr_rel_freed
  in
  List.for_all row_ok sum.ls_sites
  && sum.ls_pages_tracked >= 0
  && sum.ls_useless_prefetches >= 0
  && sum.ls_late_prefetches >= 0
  && sum.ls_early_rescued >= 0
  && sum.ls_early_refaulted >= 0
  && sum.ls_useful_releases >= 0
  && sum.ls_unnecessary_releases >= 0
  && sum.ls_prefetches_issued
     = List.fold_left (fun a r -> a + r.sr_pf_issued) 0 sum.ls_sites
  && sum.ls_prefetches_dropped
     = List.fold_left (fun a r -> a + r.sr_pf_dropped) 0 sum.ls_sites
  && sum.ls_releases_freed
     = List.fold_left (fun a r -> a + r.sr_rel_freed) 0 sum.ls_sites
  && sum.ls_releases_skipped
     = List.fold_left (fun a r -> a + r.sr_rel_skipped) 0 sum.ls_sites
