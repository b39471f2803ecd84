(** A fixed-size pool of OCaml 5 domains draining per-worker job queues
    with work stealing.

    The original pool funneled every submit, every task take and every
    idle wait through one mutex + condition pair — at four domains the
    workers spent more time rendezvousing on that lock than executing
    (the dispatch path serialised exactly the work the pool exists to
    parallelise). Here each worker owns a private queue; submissions are
    placed round-robin, a worker drains its own queue first and steals
    from its siblings when empty, and the shared mutex is touched only to
    park/unpark (empty pool) and for shutdown. The hot dispatch path is
    one per-deque lock plus one atomic counter update.

    The total queued count is still the backpressure mechanism: [submit]
    blocks once [queue_cap] jobs are waiting across all deques, so a fast
    producer cannot outrun the workers by an unbounded margin. Each
    worker owns a private context built by [mk_ctx] *inside* its own
    domain — the service layer keeps its per-worker machine caches there,
    so no simulated machine is ever touched by two domains. *)

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  f_mutex : Mutex.t;
  f_cond : Condition.t;
  mutable f_state : 'a state;
}

let fulfil fut v =
  Mutex.lock fut.f_mutex;
  fut.f_state <- v;
  Condition.broadcast fut.f_cond;
  Mutex.unlock fut.f_mutex

let await fut =
  Mutex.lock fut.f_mutex;
  let rec wait () =
    match fut.f_state with
    | Pending ->
      Condition.wait fut.f_cond fut.f_mutex;
      wait ()
    | Done v ->
      Mutex.unlock fut.f_mutex;
      v
    | Failed exn ->
      Mutex.unlock fut.f_mutex;
      raise exn
  in
  wait ()

let peek fut =
  Mutex.lock fut.f_mutex;
  let st = fut.f_state in
  Mutex.unlock fut.f_mutex;
  match st with Pending -> None | Done v -> Some (Ok v) | Failed e -> Some (Error e)

(* One worker's queue. A mutex per deque, never held while running a
   task: contention on any one lock is owner + occasional thief, not
   every domain in the pool. FIFO within a deque keeps batch order
   roughly arrival order, which the latency histograms prefer. *)
type 'ctx deque = {
  d_mutex : Mutex.t;
  d_q : ('ctx -> unit) Queue.t;
}

type 'ctx t = {
  jobs : int;
  queue_cap : int;
  deques : 'ctx deque array;  (** one per worker, index = worker id *)
  rr : int Atomic.t;  (** round-robin placement cursor for submissions *)
  queued : int Atomic.t;  (** tasks pushed but not yet taken, all deques *)
  submit_waiters : int Atomic.t;
      (** submitters blocked on [not_full]; workers consult it after
          decrementing [queued] so the common take never locks [mutex] *)
  mutex : Mutex.t;  (** parking, admission waits, [closing]; cold paths *)
  not_empty : Condition.t;  (** workers park here when the pool is empty *)
  not_full : Condition.t;  (** submitters park here at the cap *)
  mutable sleepers : int;  (** workers parked on [not_empty]; under [mutex] *)
  mutable closing : bool;
  mutable workers : unit Domain.t array;
}

(* How many workers a request for [n] actually gets: at least one, at most
   the hardware's recommended domain count — except that the ceiling never
   drops below 4, so a 4-way determinism check still exercises the
   concurrent path on small CI hosts (domains oversubscribe harmlessly). *)
let clamp_jobs n = max 1 (min n (max 4 (Domain.recommended_domain_count ())))

(* The minor heap is domain-local in OCaml 5 and spawned domains start at
   the runtime default (256k words). Interpreter workloads allocate hard,
   and every minor collection is a stop-the-world rendezvous across *all*
   domains — with several busy workers the default period makes the pool
   spend most of its time parked at barriers instead of executing jobs
   (measured 3x on the 32-job batch bench at 4 domains). Each worker
   therefore grows its own minor heap before taking work; [Gc.set] only
   resizes the calling domain, so this must run in the worker body. *)
let minor_words = 4 * 1024 * 1024

(* Take from one deque; on success [queued] is decremented inside the
   critical section, so "closing and [queued] = 0" reliably means every
   task is either finished or held by a running worker. *)
let take_from pool dq =
  Mutex.lock dq.d_mutex;
  let task = Queue.take_opt dq.d_q in
  (match task with
  | Some _ -> ignore (Atomic.fetch_and_add pool.queued (-1))
  | None -> ());
  Mutex.unlock dq.d_mutex;
  task

(* A submitter parked at the cap advertises itself in [submit_waiters]
   (incremented *before* it re-reads [queued]); the taker decrements
   [queued] before reading [submit_waiters]. Sequential consistency of
   the two atomics means at least one side sees the other, so the wakeup
   cannot be lost — and the wake only costs a mutex when someone is
   actually parked. *)
let wake_submitters pool =
  if Atomic.get pool.submit_waiters > 0 then begin
    Mutex.lock pool.mutex;
    Condition.broadcast pool.not_full;
    Mutex.unlock pool.mutex
  end

(* Own deque first; steal a task from a sibling otherwise. The scan
   starts at [i + 1] so thieves spread over victims instead of mobbing
   worker 0. *)
let try_take pool i =
  match take_from pool pool.deques.(i) with
  | Some _ as t ->
    wake_submitters pool;
    t
  | None ->
    if Atomic.get pool.queued = 0 then None
    else begin
      let n = Array.length pool.deques in
      let found = ref None in
      let k = ref 1 in
      while !found = None && !k < n do
        found := take_from pool pool.deques.((i + !k) mod n);
        incr k
      done;
      if !found <> None then wake_submitters pool;
      !found
    end

let worker pool mk_ctx i () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < minor_words then
    Gc.set { g with Gc.minor_heap_size = minor_words };
  let ctx = mk_ctx () in
  let rec loop () =
    match try_take pool i with
    | Some task ->
      task ctx;
      loop ()
    | None ->
      (* Nothing anywhere: park, unless draining is complete. The empty
         re-check runs under [mutex], and submitters publish (bump
         [queued], push, signal) under the same mutex — a worker
         committing to sleep cannot miss a concurrent submission. *)
      Mutex.lock pool.mutex;
      if Atomic.get pool.queued > 0 then begin
        Mutex.unlock pool.mutex;
        loop ()
      end
      else if pool.closing then Mutex.unlock pool.mutex  (* drain complete *)
      else begin
        pool.sleepers <- pool.sleepers + 1;
        Condition.wait pool.not_empty pool.mutex;
        pool.sleepers <- pool.sleepers - 1;
        Mutex.unlock pool.mutex;
        loop ()
      end
  in
  loop ()

let create ?(queue_cap = 64) ~jobs ~mk_ctx () =
  if queue_cap < 1 then invalid_arg "Pool.create: queue_cap must be positive";
  let jobs = clamp_jobs jobs in
  let pool =
    {
      jobs;
      queue_cap;
      deques =
        Array.init jobs (fun _ ->
            { d_mutex = Mutex.create (); d_q = Queue.create () });
      rr = Atomic.make 0;
      queued = Atomic.make 0;
      submit_waiters = Atomic.make 0;
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      sleepers = 0;
      closing = false;
      workers = [||];
    }
  in
  pool.workers <-
    Array.init jobs (fun i -> Domain.spawn (worker pool mk_ctx i));
  pool

let jobs t = t.jobs

(* [notify] runs on the worker after the future is fulfilled — the hook a
   select loop uses to wake itself (write to a self-pipe) when a result
   becomes peekable. It must never kill the worker, so exceptions are
   swallowed. *)
let mk_task ?notify f fut ctx =
  (match f ctx with
  | v -> fulfil fut (Done v)
  | exception exn -> fulfil fut (Failed exn));
  match notify with
  | None -> ()
  | Some g -> ( try g () with _ -> ())

(* Place a task round-robin. Called with [t.mutex] held: admission,
   the [closing] check, the push and the sleeper wake form one atomic
   step against [shutdown], so an admitted task is always seen by the
   drain loop (lock order: [t.mutex] then [d_mutex], never reversed). *)
let push_locked t task =
  let i = Atomic.fetch_and_add t.rr 1 in
  let dq = t.deques.(i mod Array.length t.deques) in
  Atomic.incr t.queued;
  Mutex.lock dq.d_mutex;
  Queue.add task dq.d_q;
  Mutex.unlock dq.d_mutex;
  if t.sleepers > 0 then Condition.signal t.not_empty

let submit ?notify t f =
  let fut = { f_mutex = Mutex.create (); f_cond = Condition.create (); f_state = Pending } in
  let task = mk_task ?notify f fut in
  Mutex.lock t.mutex;
  if t.closing then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Atomic.incr t.submit_waiters;
  while Atomic.get t.queued >= t.queue_cap && not t.closing do
    Condition.wait t.not_full t.mutex
  done;
  Atomic.decr t.submit_waiters;
  if t.closing then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  push_locked t task;
  Mutex.unlock t.mutex;
  fut

(* Non-blocking admission: [None] when the queue is full or the pool is
   closing, instead of stalling the caller. A server's accept loop must
   never block on its own backpressure — it sheds instead. *)
let try_submit ?notify t f =
  let fut = { f_mutex = Mutex.create (); f_cond = Condition.create (); f_state = Pending } in
  let task = mk_task ?notify f fut in
  Mutex.lock t.mutex;
  if t.closing || Atomic.get t.queued >= t.queue_cap then begin
    Mutex.unlock t.mutex;
    None
  end
  else begin
    push_locked t task;
    Mutex.unlock t.mutex;
    Some fut
  end

(* Stop accepting work, let the workers drain what is queued, join them. *)
let shutdown t =
  Mutex.lock t.mutex;
  t.closing <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers
