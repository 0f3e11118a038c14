-- Generated by pmsynth: design "absdiff", 3 control steps, power managed controller.
-- Scheduling follows Monteiro et al., DAC 1996.

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity absdiff_datapath is
  port (
    clk : in std_logic;
    a : in unsigned(7 downto 0);
    b : in unsigned(7 downto 0);
    ld_g : in std_logic;
    ld_d1 : in std_logic;
    ld_d2 : in std_logic;
    ld_out : in std_logic;
    go_g : in std_logic;
    go_d1 : in std_logic;
    go_d2 : in std_logic;
    cond_g : out std_logic;
    next_g : out std_logic;
    out_1 : out unsigned(7 downto 0)
  );
end entity;

architecture rtl of absdiff_datapath is
  signal r_g : unsigned(7 downto 0) := (others => '0');
  signal r_d1 : unsigned(7 downto 0) := (others => '0');
  signal r_d2 : unsigned(7 downto 0) := (others => '0');
  signal r_out : unsigned(7 downto 0) := (others => '0');
  signal y_g : unsigned(7 downto 0);
  signal y_out : unsigned(7 downto 0);
  signal u_comp0_a, u_comp0_b : unsigned(7 downto 0) := (others => '0');
  signal u_sub0_a, u_sub0_b : unsigned(7 downto 0) := (others => '0');
  signal u_sub0_y : unsigned(7 downto 0);
begin
  u_sub0_y <= u_sub0_a - u_sub0_b;
  y_g <= to_unsigned(1, 8) when u_comp0_a > u_comp0_b else to_unsigned(0, 8);
  y_out <= r_d1 when r_g(0) = '1' else r_d2;
  u_comp0_ops : process (clk)
  begin
    if rising_edge(clk) then
      if go_g = '1' then
        u_comp0_a <= a;
        u_comp0_b <= b;
      end if;
    end if;
  end process;
  u_sub0_ops : process (clk)
  begin
    if rising_edge(clk) then
      if go_d1 = '1' then
        u_sub0_a <= a;
        u_sub0_b <= b;
      end if;
      if go_d2 = '1' then
        u_sub0_a <= b;
        u_sub0_b <= a;
      end if;
    end if;
  end process;
  regs : process (clk)
  begin
    if rising_edge(clk) then
      if ld_g = '1' then r_g <= y_g; end if;
      if ld_d1 = '1' then r_d1 <= u_sub0_y; end if;
      if ld_d2 = '1' then r_d2 <= u_sub0_y; end if;
      if ld_out = '1' then r_out <= y_out; end if;
    end if;
  end process;
  cond_g <= r_g(0);
  next_g <= y_g(0);
  out_1 <= r_out;
end architecture;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity absdiff_controller is
  port (
    clk : in std_logic;
    rst : in std_logic;
    cond_g : in std_logic;
    next_g : in std_logic;
    ld_g : out std_logic;
    ld_d1 : out std_logic;
    ld_d2 : out std_logic;
    ld_out : out std_logic;
    go_g : out std_logic;
    go_d1 : out std_logic;
    go_d2 : out std_logic
  );
end entity;

architecture fsm of absdiff_controller is
  signal state : natural range 0 to 3 := 0;
begin
  advance : process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        state <= 0;
      elsif state = 3 then
        state <= 0;
      else
        state <= state + 1;
      end if;
    end if;
  end process;

  ld_g <= '1' when state = 1 else '0';
  ld_d1 <= '1' when state = 2 and cond_g = '1' else '0';
  ld_d2 <= '1' when state = 2 and cond_g = '0' else '0';
  ld_out <= '1' when state = 3 else '0';
  go_g <= '1' when state = 0 else '0';
  go_d1 <= '1' when state = 1 and next_g = '1' else '0';
  go_d2 <= '1' when state = 1 and next_g = '0' else '0';
end architecture;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity absdiff is
  port (
    clk : in std_logic;
    rst : in std_logic;
    a : in unsigned(7 downto 0);
    b : in unsigned(7 downto 0);
    out_1 : out unsigned(7 downto 0)
  );
end entity;

architecture structure of absdiff is
  signal ld_g : std_logic;
  signal ld_d1 : std_logic;
  signal ld_d2 : std_logic;
  signal ld_out : std_logic;
  signal go_g : std_logic;
  signal go_d1 : std_logic;
  signal go_d2 : std_logic;
  signal cond_g : std_logic;
  signal next_g : std_logic;
begin
  dp : entity work.absdiff_datapath
    port map (
      clk => clk,
      a => a,
      b => b,
      ld_g => ld_g,
      ld_d1 => ld_d1,
      ld_d2 => ld_d2,
      ld_out => ld_out,
      go_g => go_g,
      go_d1 => go_d1,
      go_d2 => go_d2,
      cond_g => cond_g,
      next_g => next_g,
      out_1 => out_1
    );
  fsm : entity work.absdiff_controller
    port map (
      clk => clk,
      rst => rst,
      cond_g => cond_g,
      next_g => next_g,
      ld_g => ld_g,
      ld_d1 => ld_d1,
      ld_d2 => ld_d2,
      ld_out => ld_out,
      go_g => go_g,
      go_d1 => go_d1,
      go_d2 => go_d2
    );
end architecture;
