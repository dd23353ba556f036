(* Loop-nest IR; see ir.mli for the design rationale. *)

type bound = { bc : int; bt : (string * int) list }

let cst n = { bc = n; bt = [] }
let param p = { bc = 0; bt = [ (p, 1) ] }

let norm_terms terms =
  List.filter (fun (_, k) -> k <> 0) terms

let scale k b =
  { bc = k * b.bc; bt = norm_terms (List.map (fun (p, c) -> (p, k * c)) b.bt) }

let add a b =
  let merged =
    List.fold_left
      (fun acc (p, c) ->
        match List.assoc_opt p acc with
        | Some c0 -> (p, c0 + c) :: List.remove_assoc p acc
        | None -> (p, c) :: acc)
      a.bt b.bt
  in
  { bc = a.bc + b.bc; bt = norm_terms merged }

let add_const b n = { b with bc = b.bc + n }

type env = (string, int) Hashtbl.t

let env_of_list l =
  let h = Hashtbl.create (List.length l * 2) in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) l;
  h

let lookup env name =
  match Hashtbl.find_opt env name with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Ir: unbound variable %s" name)

let eval_bound env b =
  List.fold_left (fun acc (p, k) -> acc + (k * lookup env p)) b.bc b.bt

type coef = C_const of int | C_param of string | C_opaque of string

type subscript = {
  sc : int;
  sp : (string * int) list;
  st : (string * coef) list;
}

type access = Direct of subscript | Indirect of { via : string; every : int }

type ref_ = { r_array : string; r_access : access; r_write : bool }

let direct ?(off = 0) ?(param_off = []) name terms ~write =
  { r_array = name; r_access = Direct { sc = off; sp = param_off; st = terms }; r_write = write }

let indirect ?(every = 1) name ~via ~write =
  if every < 1 then invalid_arg "Ir.indirect: every must be >= 1";
  { r_array = name; r_access = Indirect { via; every }; r_write = write }

let coef_value env = function
  | C_const c -> c
  | C_param p | C_opaque p -> lookup env p

let eval_subscript env s =
  let base =
    List.fold_left (fun acc (p, k) -> acc + (k * lookup env p)) s.sc s.sp
  in
  List.fold_left
    (fun acc (v, c) -> acc + (lookup env v * coef_value env c))
    base s.st

let coef_visible = function C_const _ | C_param _ -> true | C_opaque _ -> false

type body = { refs : ref_ list; work_ns_per_iter : int }

type stmt =
  | S_loop of loop
  | S_seq of stmt list
  | S_body of body
  | S_call of string * (string * bound) list

and loop = {
  l_var : string;
  l_lo : bound;
  l_hi : bound;
  l_known : bool;
  l_body : stmt;
}

let loop ?(known = true) ~var ~lo ~hi body =
  S_loop { l_var = var; l_lo = lo; l_hi = hi; l_known = known; l_body = body }

type array_decl = {
  a_name : string;
  a_elem_bytes : int;
  a_size_elems : bound;
  a_on_swap : bool;
}

type proc = { p_name : string; p_body : stmt }

type program = {
  prog_name : string;
  arrays : array_decl list;
  assumptions : (string * int option) list;
  procs : proc list;
  main : stmt;
}

let array_decl ?(elem_bytes = 8) ?(on_swap = true) name ~size =
  { a_name = name; a_elem_bytes = elem_bytes; a_size_elems = size; a_on_swap = on_swap }

let find_array prog name =
  match List.find_opt (fun a -> a.a_name = name) prog.arrays with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ir: unknown array %s" name)

let find_proc prog name =
  match List.find_opt (fun p -> p.p_name = name) prog.procs with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Ir: unknown procedure %s" name)

let array_pages prog env ~page_bytes name =
  let a = find_array prog name in
  let bytes = eval_bound env a.a_size_elems * a.a_elem_bytes in
  (bytes + page_bytes - 1) / page_bytes

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

(* Where a name is read, for error messages (rendered only on error). *)
type site =
  | In_size of string  (* array *)
  | In_bound of string  (* loop variable *)
  | In_subscript of string  (* array *)
  | In_binding of string * string  (* procedure, formal *)

let describe = function
  | In_size a -> "size of array " ^ a
  | In_bound v -> "loop bound of " ^ v
  | In_subscript a -> "subscript of " ^ a
  | In_binding (p, f) -> Printf.sprintf "call %s binding %s" p f

(* Apply [f] to each name an expression reads. *)
let iter_bound f b = List.iter (fun (p, _) -> f p) b.bt

let iter_subscript f s =
  List.iter (fun (p, _) -> f p) s.sp;
  List.iter (function _, C_const _ -> () | _, (C_param p | C_opaque p) -> f p) s.st

(* Walk every statement with its scope, reporting structural errors and
   each name that is neither an enclosing loop variable nor a procedure
   formal bound at every call site: such a name must be a declared
   parameter, and a run must supply it. *)
let check prog =
  let errors = ref [] and inputs = ref [] in
  let err fmt =
    Format.kasprintf
      (fun s -> if not (List.mem s !errors) then errors := s :: !errors)
      fmt
  in
  let arrays = List.map (fun a -> a.a_name) prog.arrays in
  let proc_names = List.map (fun p -> p.p_name) prog.procs in
  let params = List.map fst prog.assumptions in
  let use_param site name =
    if List.mem name params then begin
      if not (List.mem name !inputs) then inputs := name :: !inputs
    end
    else err "%s uses undeclared name %s" (describe site) name
  in
  (* A proc's formals: the names every one of its call sites binds. *)
  let call_sites = ref [] in
  let rec calls = function
    | S_loop l -> calls l.l_body
    | S_seq ss -> List.iter calls ss
    | S_body _ -> ()
    | S_call (name, binds) -> call_sites := (name, List.map fst binds) :: !call_sites
  in
  calls prog.main;
  List.iter (fun p -> calls p.p_body) prog.procs;
  let formals name =
    match List.filter_map (fun (n, b) -> if n = name then Some b else None) !call_sites with
    | [] -> []
    | first :: rest ->
        List.filter (fun v -> List.for_all (List.mem v) rest) first
  in
  let check_ref use bound_vars r =
    if not (List.mem r.r_array arrays) then err "unknown array %s" r.r_array;
    match r.r_access with
    | Direct s ->
        List.iter
          (fun (v, _) ->
            if not (List.mem v bound_vars) then
              err "subscript of %s uses unbound loop variable %s" r.r_array v)
          s.st;
        iter_subscript (use (In_subscript r.r_array)) s
    | Indirect { via; _ } ->
        if not (List.mem via arrays) then
          err "indirect reference to %s through unknown index array %s" r.r_array via
  in
  let rec check_stmt ~formals bound_vars stmt =
    let use site name =
      if not (List.mem name bound_vars || List.mem name formals) then
        use_param site name
    in
    match stmt with
    | S_loop l ->
        if List.mem l.l_var bound_vars then
          err "loop variable %s shadows an enclosing loop" l.l_var;
        iter_bound (use (In_bound l.l_var)) l.l_lo;
        iter_bound (use (In_bound l.l_var)) l.l_hi;
        check_stmt ~formals (l.l_var :: bound_vars) l.l_body
    | S_seq stmts -> List.iter (check_stmt ~formals bound_vars) stmts
    | S_body b ->
        if b.work_ns_per_iter < 0 then err "negative work per iteration";
        List.iter (check_ref use bound_vars) b.refs
    | S_call (name, binds) ->
        if not (List.mem name proc_names) then err "unknown procedure %s" name;
        List.iter
          (fun (p, b) -> iter_bound (use (In_binding (name, p))) b)
          binds
  in
  List.iter
    (fun a -> iter_bound (use_param (In_size a.a_name)) a.a_size_elems)
    prog.arrays;
  check_stmt ~formals:[] [] prog.main;
  List.iter (fun p -> check_stmt ~formals:(formals p.p_name) [] p.p_body) prog.procs;
  (List.rev !errors, List.sort_uniq compare !inputs)

let validate prog =
  match check prog with
  | [], inputs -> Ok inputs
  | errs, _ -> Error (String.concat "; " errs)

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_bound fmt b =
  let parts =
    (if b.bc <> 0 || b.bt = [] then [ string_of_int b.bc ] else [])
    @ List.map
        (fun (p, k) -> if k = 1 then p else Printf.sprintf "%d*%s" k p)
        b.bt
  in
  Format.pp_print_string fmt (String.concat "+" parts)

let pp_coef fmt = function
  | C_const c -> Format.pp_print_int fmt c
  | C_param p -> Format.pp_print_string fmt p
  | C_opaque p -> Format.fprintf fmt "?%s?" p

let pp_subscript fmt s =
  let parts =
    (if s.sc <> 0 then [ string_of_int s.sc ] else [])
    @ List.map (fun (p, k) -> if k = 1 then p else Printf.sprintf "%d*%s" k p) s.sp
    @ List.map
        (fun (v, c) -> Format.asprintf "%a*%s" pp_coef c v)
        s.st
  in
  Format.pp_print_string fmt
    (match parts with [] -> "0" | _ -> String.concat " + " parts)

let pp_ref fmt r =
  match r.r_access with
  | Direct s ->
      Format.fprintf fmt "%s[%a]%s" r.r_array pp_subscript s
        (if r.r_write then " (w)" else "")
  | Indirect { via; _ } ->
      Format.fprintf fmt "%s[%s[.]]%s" r.r_array via (if r.r_write then " (w)" else "")

let rec pp_stmt fmt = function
  | S_loop l ->
      Format.fprintf fmt "@[<v 2>for %s = %a .. %a%s {@,%a@]@,}" l.l_var pp_bound
        l.l_lo pp_bound l.l_hi
        (if l.l_known then "" else " (bounds unknown)")
        pp_stmt l.l_body
  | S_seq stmts ->
      Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt fmt stmts
  | S_body b ->
      Format.fprintf fmt "@[<v>%a@,work %dns@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_ref)
        b.refs b.work_ns_per_iter
  | S_call (name, binds) ->
      Format.fprintf fmt "call %s(%s)" name
        (String.concat ", "
           (List.map (fun (p, b) -> Format.asprintf "%s=%a" p pp_bound b) binds))

let pp_program fmt prog =
  Format.fprintf fmt "@[<v>program %s@," prog.prog_name;
  List.iter
    (fun a ->
      Format.fprintf fmt "array %s : %a elems x %dB%s@," a.a_name pp_bound
        a.a_size_elems a.a_elem_bytes
        (if a.a_on_swap then " (on swap)" else ""))
    prog.arrays;
  List.iter
    (fun p -> Format.fprintf fmt "@[<v 2>proc %s {@,%a@]@,}@," p.p_name pp_stmt p.p_body)
    prog.procs;
  Format.fprintf fmt "%a@]" pp_stmt prog.main
