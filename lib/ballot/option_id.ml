(* An option (the calligraphic letters of the paper: A, B, C, ...) is an
   element of the voting option domain V.  We back it by an integer so the
   domain can be pre-determined by the subject or generated from inputs. *)

type t = int

let of_int i =
  if i < 0 then invalid_arg "Option_id.of_int: negative id";
  i

let to_int x = x
let equal = Int.equal
let compare = Int.compare
let hash x = x

let labels = [| "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" |]

let pp ppf x =
  if x < Array.length labels then Fmt.string ppf labels.(x)
  else Fmt.pf ppf "opt%d" x

let to_string x = Fmt.str "%a" pp x

(* The inverse of [to_string], which also reads a plain non-negative
   decimal id: "B", "opt9" and "1"/"9" name the same options. *)
let of_string s =
  let nat s =
    if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then
      int_of_string_opt s
    else None
  in
  match Array.find_index (String.equal s) labels with
  | Some i -> Some i
  | None ->
      if String.starts_with ~prefix:"opt" s then
        nat (String.sub s 3 (String.length s - 3))
      else nat s

let list_to_string l = String.concat "," (List.map to_string l)

let list_of_string s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        let x = String.trim x in
        match of_string x with
        | Some o -> go (o :: acc) rest
        | None ->
            Error
              (Printf.sprintf
                 "%S is not an option (options are A-H, optN or a \
                  non-negative integer)"
                 x))
  in
  go [] (String.split_on_char ',' s)
